//! Minimal stackful coroutines ("fibers"): how the kernel runs ranks inline.
//!
//! Each simulated rank owns a [`Fiber`]: a stack mapping plus a saved
//! machine context. The kernel's event loop *resumes* a fiber with an input
//! value; the rank body runs on its own stack until it hands an output value
//! to [`Suspender::suspend`], at which point control returns to the resumer.
//! Both directions are plain function calls on one OS thread — no lock, no
//! wake, nothing is handed to another thread — and the values travel through
//! two `Option` fields of the fiber's control block.
//!
//! The implementation is deliberately tiny: a hand-rolled x86-64 System V
//! context switch (callee-saved registers + `mxcsr`/x87 control word) written
//! with `global_asm!`.
//!
//! A resume first reads the control block, then pops the saved registers
//! and returns through the frames just below it. With thousands of ranks
//! those lines, and the page-table entry of the stack's top page, are out of
//! the cache and the TLB by the time a rank runs again: in the 4096-rank
//! scale cell the first load of the control block was about a quarter of a
//! run, and the switch another 8 %. [`Fiber::prefetch`] starts those loads
//! early: the kernel calls it for the rank of the next event, so the page
//! walk and the misses overlap the current event.
//!
//! Every stack is an anonymous mapping of its own whose lowest page is
//! `PROT_NONE`, so a rank that overflows its stack faults (the process dies
//! by `SIGSEGV`) instead of writing over whatever lies below. A dropped
//! fiber's mapping goes to a cache of its thread and is handed to the next
//! fiber of the same size there: repeated runs on one thread reuse stacks
//! whose pages are already resident and make no system call. The cache
//! never holds more than the thread has had live at once, and the thread's
//! exit unmaps it.
//!
//! A stack is `Sim::stack_size` bytes rounded up to whole pages (8 MiB
//! unless the caller sets it). Its pages are committed only when touched
//! (`MAP_NORESERVE`), so thousands of ranks reserve address space, not
//! memory. A guarded stack is two kernel mappings, so `vm.max_map_count`
//! (65 530 by default) allows about 32 000 live ranks per process; past
//! that `mmap` fails and the panic says so.
//!
//! The flag values are Linux's: on other hosts, as on non-x86-64 ones,
//! [`SUPPORTED`] is `false`, nothing below it is compiled, and the
//! simulator runs every rank on a thread of its own.

/// Whether this build can run fibers at all.
pub(crate) const SUPPORTED: bool = cfg!(all(target_arch = "x86_64", target_os = "linux"));

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) use imp::{Fiber, Suspender};

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    use std::cell::RefCell;
    use std::ffi::{c_int, c_void};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::ptr;

    // std links libc; these are its declarations on x86-64 Linux.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_NONE: c_int = 0;
    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_NORESERVE: c_int = 0x4000;
    /// Also keeps transparent huge pages off the mapping.
    const MAP_STACK: c_int = 0x20000;
    const MAP_FAILED: *mut c_void = !0 as *mut c_void;
    /// The base page size of x86-64; the guard is one page.
    const PAGE: usize = 4096;
    /// The cache line size of x86-64.
    const LINE: usize = 64;
    /// How much of the stack just below the control block
    /// [`Fiber::prefetch`] warms. A rank of the 4096-rank scale cell
    /// suspends about 1.7 KiB below its control block. Of windows of 1, 1.5,
    /// 2, 2.5 and 3 KiB, and of one reaching from the saved stack pointer
    /// (which costs a load of the cold control block first), 2 KiB ran that
    /// cell fastest on a 2-vCPU x86-64 VM.
    const PREFETCH_WINDOW: usize = 2048;

    /// Maps `len` bytes (whole pages, more than one) with the lowest page
    /// `PROT_NONE`.
    fn map_stack(len: usize) -> *mut u8 {
        let fail = |call: &str| -> ! {
            panic!(
                "fiber stack: {call} of {len} bytes failed: {}; a guarded stack \
                 is two mappings, so a process fits about vm.max_map_count / 2 \
                 ranks (about 32 000 at the default)",
                std::io::Error::last_os_error()
            )
        };
        // SAFETY: an anonymous private mapping at an address of the kernel's
        // choosing aliases nothing; the result is checked before use.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if base == MAP_FAILED {
            fail("mmap");
        }
        // SAFETY: the lowest page lies inside the mapping just made, which
        // nothing else knows of yet.
        if unsafe { mprotect(base, PAGE, PROT_NONE) } != 0 {
            fail("mprotect");
        }
        base.cast()
    }

    /// Unmaps a mapping of `map_stack`. Ignores failure: it runs in `Drop`,
    /// and `munmap` of a whole live mapping cannot fail.
    fn unmap_stack(base: *mut u8, len: usize) {
        // SAFETY: the caller owns the mapping and nothing refers into it.
        unsafe { munmap(base.cast(), len) };
    }

    /// The stack mappings released on this thread as `(base, len)`, most
    /// recent last. A dropped fiber's stack is never in use, so it may be
    /// handed to the next fiber of the same length as is.
    struct StackCache(Vec<(*mut u8, usize)>);

    impl StackCache {
        fn take(&mut self, len: usize) -> Option<*mut u8> {
            let i = self.0.iter().rposition(|&(_, l)| l == len)?;
            Some(self.0.remove(i).0)
        }
    }

    impl Drop for StackCache {
        fn drop(&mut self) {
            for &(base, len) in &self.0 {
                unmap_stack(base, len);
            }
        }
    }

    thread_local! {
        static STACKS: RefCell<StackCache> = const { RefCell::new(StackCache(Vec::new())) };
    }

    // The context switch saves the System V callee-saved integer registers
    // plus the SSE and x87 control words (their callee-saved portions), then
    // swaps stacks. Frame layout at a saved stack pointer, low to high:
    //
    //   rsp + 0   mxcsr (4 bytes) | x87 control word (2 bytes) | pad
    //   rsp + 8   r15
    //   rsp + 16  r14
    //   rsp + 24  r13
    //   rsp + 32  r12
    //   rsp + 40  rbx
    //   rsp + 48  rbp
    //   rsp + 56  return address
    //
    // A brand-new fiber's frame is forged by `Fiber::new` so that the first
    // switch "returns" into `numagap_fiber_trampoline` with the control-block
    // pointer in r12 and the entry shim in r13.
    std::arch::global_asm!(
        ".text",
        ".balign 16",
        ".globl numagap_fiber_switch",
        "numagap_fiber_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".balign 16",
        ".globl numagap_fiber_trampoline",
        "numagap_fiber_trampoline:",
        "mov rdi, r12",
        "call r13",
        "ud2",
    );

    extern "C" {
        /// Saves the current context's stack pointer through `save` and
        /// resumes the context whose saved stack pointer is `restore_rsp`.
        fn numagap_fiber_switch(save: *mut usize, restore_rsp: usize);
        fn numagap_fiber_trampoline();
    }

    type Entry<I, O> = Box<dyn FnOnce(Suspender<I, O>, I) -> O>;

    /// Per-fiber control block, carved out of the top of the fiber's own
    /// stack mapping so a `Fiber` needs nothing else. Only ever
    /// touched through raw pointers: both sides of a switch hold one.
    struct Control<I, O> {
        /// Saved stack pointer of the fiber while it is suspended.
        fiber_rsp: usize,
        /// Saved stack pointer of whoever resumed the fiber.
        caller_rsp: usize,
        /// Set by the fiber just before its final switch back.
        finished: bool,
        /// The fiber body; taken by the trampoline on first resume.
        entry: Option<Entry<I, O>>,
        /// The value travelling into the fiber with the current resume.
        input: Option<I>,
        /// The value travelling out with the current suspend (or return).
        output: Option<O>,
    }

    /// A resumable execution context with its own stack. Tied to the thread
    /// that created it (`!Send`): it is resumed where it was suspended.
    pub(crate) struct Fiber<I, O> {
        ctl: *mut Control<I, O>,
        /// The stack mapping: `len` bytes from `base`, guard page included.
        base: *mut u8,
        len: usize,
    }

    /// The running fiber's way back to its resumer; handed to the fiber body.
    pub(crate) struct Suspender<I, O> {
        ctl: *mut Control<I, O>,
    }

    impl<I, O> std::fmt::Debug for Fiber<I, O> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Fiber")
                .field("stack_bytes", &(self.len - PAGE))
                .finish_non_exhaustive()
        }
    }

    /// Default mxcsr: all exceptions masked, round-to-nearest (the value
    /// `rustc`-generated code expects on function entry).
    const MXCSR_INIT: u64 = 0x1F80;
    /// Default x87 control word: all exceptions masked, 64-bit precision,
    /// round-to-nearest.
    const FPCW_INIT: u64 = 0x037F;

    const fn round_up16(n: usize) -> usize {
        (n + 15) & !15
    }

    extern "C" fn fiber_entry<I, O>(ctl: *mut Control<I, O>) {
        // SAFETY: the trampoline passes the control-block pointer forged by
        // `Fiber::new`; the block outlives the fiber's whole run, and the
        // resumer is suspended inside `resume`, so nothing else touches it.
        let (entry, input) = unsafe {
            (
                (*ctl)
                    .entry
                    .take()
                    .expect("fiber resumed twice through its trampoline"),
                (*ctl).input.take().expect("fiber started without an input"),
            )
        };
        // Backstop: the simulator wraps rank bodies in their own
        // catch_unwind, so this one should never see a payload — but a panic
        // escaping through the forged assembly frame would be undefined
        // behaviour, so catch it unconditionally.
        let Ok(output) = catch_unwind(AssertUnwindSafe(|| entry(Suspender { ctl }, input))) else {
            std::process::abort();
        };
        // SAFETY: as above; switching back to the resumer of this final run,
        // whose saved context is live.
        unsafe {
            (*ctl).output = Some(output);
            (*ctl).finished = true;
            numagap_fiber_switch(ptr::addr_of_mut!((*ctl).fiber_rsp), (*ctl).caller_rsp);
        }
        // A finished fiber must never be resumed again.
        std::process::abort();
    }

    impl<I, O> Fiber<I, O> {
        /// Creates a fiber that will run `entry` on its own `stack_size`-byte
        /// stack (rounded up to whole pages, above a guard page) when first
        /// resumed, passing it the first resume's input. The closure must not
        /// unwind (the simulator wraps rank bodies in `catch_unwind`).
        ///
        /// # Panics
        ///
        /// Panics if the stack cannot be mapped.
        pub(crate) fn new<F>(stack_size: usize, entry: F) -> Self
        where
            F: FnOnce(Suspender<I, O>, I) -> O + 'static,
        {
            assert!(
                std::mem::align_of::<Control<I, O>>() <= 16,
                "fiber control block needs more than the stack's 16-byte alignment"
            );
            let ctl_space = round_up16(std::mem::size_of::<Control<I, O>>());
            let len = stack_size
                .max(ctl_space + PAGE)
                .checked_next_multiple_of(PAGE)
                .and_then(|size| size.checked_add(PAGE))
                .expect("fiber stack size overflows the address space");
            let base = STACKS
                .try_with(|cache| cache.borrow_mut().take(len))
                .ok()
                .flatten()
                .unwrap_or_else(|| map_stack(len));
            // The control block sits at the very top of the mapping; the
            // usable stack grows down from just below it to the guard page.
            let sp0 = base as usize + len - ctl_space;
            let ctl = sp0 as *mut Control<I, O>;
            // SAFETY: `ctl` is 16-aligned, inside the writable part of a
            // mapping this fiber alone owns, and has `ctl_space` bytes of room.
            unsafe {
                ptr::write(
                    ctl,
                    Control {
                        fiber_rsp: sp0 - 64,
                        caller_rsp: 0,
                        finished: false,
                        entry: Some(Box::new(entry)),
                        input: None,
                        output: None,
                    },
                );
            }
            // Forge the initial switch frame (see the asm comment for the
            // layout). After the first switch "returns" into the trampoline
            // the stack pointer is `sp0`, 16-aligned, so the `call r13`
            // leaves the entry shim with the ABI-required alignment.
            let seed = |offset: usize, value: u64| {
                // SAFETY: all seeded slots lie in `[sp0 - 64, sp0)`, inside
                // the writable part of the mapping and below the control
                // block.
                unsafe { ptr::write((sp0 - offset) as *mut u64, value) };
            };
            seed(8, numagap_fiber_trampoline as *const () as usize as u64);
            seed(16, 0); // rbp
            seed(24, 0); // rbx
            seed(32, ctl as u64); // r12 -> control block
            seed(
                40,
                fiber_entry::<I, O> as extern "C" fn(*mut Control<I, O>) as usize as u64,
            ); // r13
            seed(48, 0); // r14
            seed(56, 0); // r15
            seed(64, MXCSR_INIT | (FPCW_INIT << 32));
            Fiber { ctl, base, len }
        }

        /// Runs the fiber with `input` until it suspends or its entry
        /// closure returns, and hands back the value it produced. Check
        /// [`Self::is_finished`] to tell the two apart.
        ///
        /// # Panics
        ///
        /// Panics if the fiber already finished.
        pub(crate) fn resume(&mut self, input: I) -> O {
            let ctl = self.ctl;
            assert!(!self.is_finished(), "fiber resumed after it finished");
            // SAFETY: the fiber is suspended (its saved context is valid) and
            // `&mut self` makes this the only resume in flight; the switch
            // saves this context into `caller_rsp` before jumping, and the
            // fiber only switches back after storing an output.
            unsafe {
                (*ctl).input = Some(input);
                numagap_fiber_switch(ptr::addr_of_mut!((*ctl).caller_rsp), (*ctl).fiber_rsp);
                (*ctl)
                    .output
                    .take()
                    .expect("fiber switched back without an output")
            }
        }

        /// Starts loading into the cache what the next [`Self::resume`]
        /// reads first: the control block, and the [`PREFETCH_WINDOW`]
        /// bytes of stack just below it, where a suspended fiber's live
        /// frames and its saved registers are. The window stops at the
        /// control block's page, so the hint costs one page walk at most.
        /// Nothing is read into the program: the result of every resume
        /// is what it would be without the hint, at any point of the
        /// fiber's life.
        #[inline]
        pub(crate) fn prefetch(&self) {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let ctl = self.ctl as usize;
            let end = ctl + std::mem::size_of::<Control<I, O>>();
            let mut line = (ctl - PREFETCH_WINDOW).max(ctl & !(PAGE - 1)) & !(LINE - 1);
            while line < end {
                // SAFETY: a prefetch is a hint to the cache: it never
                // faults and changes no memory, whatever the address.
                // These addresses all lie in this fiber's own mapping.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(line as *const i8) };
                line += LINE;
            }
        }

        /// Whether the entry closure has returned.
        pub(crate) fn is_finished(&self) -> bool {
            // SAFETY: the control block stays valid for the fiber's lifetime.
            unsafe { (*self.ctl).finished }
        }

        /// Whether the fiber is parked inside [`Suspender::suspend`]: started
        /// and not finished, so values are alive on its stack.
        pub(crate) fn is_suspended(&self) -> bool {
            // SAFETY: as in `is_finished`.
            unsafe { (*self.ctl).entry.is_none() && !(*self.ctl).finished }
        }
    }

    impl<I, O> Suspender<I, O> {
        /// Suspends the running fiber, handing `output` to its resumer, and
        /// returns the input of the resume that continues it.
        ///
        /// # Safety
        ///
        /// Must be called on this fiber's own stack, while it is the context
        /// its resumer is waiting for: the switch saves the *current* stack
        /// pointer as the fiber's and jumps to the saved resumer. The
        /// simulator guarantees it by keeping the suspender inside the
        /// `ProcCtx` that lives on, and never leaves, the rank body's stack.
        pub(crate) unsafe fn suspend(&self, output: O) -> I {
            let ctl = self.ctl;
            // SAFETY: `ctl` is the live control block of the fiber running on
            // this stack (caller contract); `caller_rsp` was saved by the
            // resume that got us here, and the resumer stores an input before
            // switching back.
            unsafe {
                (*ctl).output = Some(output);
                numagap_fiber_switch(ptr::addr_of_mut!((*ctl).fiber_rsp), (*ctl).caller_rsp);
                (*ctl).input.take().expect("fiber resumed without an input")
            }
        }
    }

    impl<I, O> Drop for Fiber<I, O> {
        fn drop(&mut self) {
            // A never-started fiber still owns its entry closure, which is
            // dropped with the control block. A suspended fiber's stack is
            // released without being resumed, so values living on it leak
            // — safe (the fiber can never run again); the simulator unwinds
            // suspended ranks before dropping them.
            // SAFETY: we own the mapping and nothing can resume the fiber
            // concurrently.
            unsafe { ptr::drop_in_place(self.ctl) };
            let (base, len) = (self.base, self.len);
            // Once the thread's cache is gone (a fiber dropped by another
            // thread-local's destructor), the stack is unmapped instead.
            if STACKS
                .try_with(|cache| cache.borrow_mut().0.push((base, len)))
                .is_err()
            {
                unmap_stack(base, len);
            }
        }
    }
}

#[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::hint::black_box;
    use std::rc::Rc;

    /// Where a local of a fresh fiber of `stack_size` bytes lives: the same
    /// address means the same stack mapping.
    fn local_address(stack_size: usize) -> usize {
        let mut f = Fiber::new(stack_size, |_s: Suspender<(), usize>, ()| {
            let local = 0u64;
            black_box(&local) as *const u64 as usize
        });
        f.resume(())
    }

    #[test]
    fn a_dropped_stack_goes_to_the_next_fiber_of_its_size() {
        let first = local_address(64 * 1024);
        assert_eq!(local_address(64 * 1024), first);
        // A fiber of another size gets a mapping of its own (the released
        // one is still mapped, in the cache, so the addresses differ), and
        // the released one stays there for its size.
        assert_ne!(local_address(128 * 1024), first);
        assert_eq!(local_address(64 * 1024), first);
    }

    /// Readable and writable mappings of exactly `len` bytes: the stacks of
    /// `len` requested bytes (whole pages), kept apart by their guard pages.
    fn writable_mappings_of(len: usize) -> usize {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs is mounted");
        maps.lines()
            .filter(|line| {
                let mut fields = line.split_whitespace();
                let (range, perms) = (fields.next().unwrap(), fields.next().unwrap());
                let (lo, hi) = range.split_once('-').unwrap();
                let size =
                    usize::from_str_radix(hi, 16).unwrap() - usize::from_str_radix(lo, 16).unwrap();
                perms.starts_with("rw") && size == len
            })
            .count()
    }

    #[test]
    fn a_thread_that_exits_unmaps_the_stacks_it_cached() {
        // A size no other test uses, since tests run beside each other.
        const SIZE: usize = 100 * 4096;
        let before = writable_mappings_of(SIZE);
        std::thread::spawn(move || {
            let fibers: Vec<_> = (0..64)
                .map(|i| Fiber::new(SIZE, move |_s: Suspender<(), usize>, ()| i))
                .collect();
            assert!(writable_mappings_of(SIZE) >= before + 63);
            drop(fibers);
            // Released, the 64 stacks stay mapped in the thread's cache.
            assert!(writable_mappings_of(SIZE) >= before + 63);
        })
        .join()
        .expect("the fiber thread runs");
        assert_eq!(writable_mappings_of(SIZE), before);
    }

    #[test]
    fn fiber_runs_to_completion_with_its_first_input() {
        let mut f = Fiber::new(64 * 1024, |_s: Suspender<u64, u64>, first| first * 2);
        assert_eq!(f.resume(21), 42);
        assert!(f.is_finished());
    }

    #[test]
    fn values_travel_both_ways_and_locals_survive_suspension() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = Rc::clone(&log);
        let mut f = Fiber::new(64 * 1024, move |s: Suspender<u64, u64>, first| {
            let mut local = first;
            for _ in 0..2 {
                l.borrow_mut().push(local);
                // SAFETY: called on this fiber's own stack.
                local += unsafe { s.suspend(local * 10) };
            }
            local
        });
        assert!(!f.is_suspended());
        assert_eq!(f.resume(1), 10);
        assert!(f.is_suspended());
        assert_eq!(f.resume(2), 30);
        assert_eq!(f.resume(4), 7);
        assert!(f.is_finished() && !f.is_suspended());
        assert_eq!(*log.borrow(), vec![1, 3]);
    }

    #[test]
    fn a_fiber_can_resume_another_fiber() {
        let mut outer = Fiber::new(64 * 1024, |s: Suspender<u64, u64>, first| {
            let mut inner = Fiber::new(64 * 1024, |s: Suspender<u64, u64>, a| {
                // SAFETY: called on the inner fiber's own stack.
                a + unsafe { s.suspend(a + 1) }
            });
            let mid = inner.resume(first);
            // SAFETY: called on the outer fiber's own stack.
            let second = unsafe { s.suspend(mid) };
            inner.resume(second)
        });
        assert_eq!(outer.resume(5), 6);
        assert_eq!(outer.resume(100), 105);
    }

    type Io = (u64, String);

    /// How many times an [`echo`] fiber suspends before it returns.
    const ROUNDS: u64 = 3;

    /// The sum of the stack local an [`echo`] fiber started with `seed`
    /// keeps.
    fn pattern_sum(seed: u64) -> u64 {
        (0..64).fold(0u64, |sum, i| sum.wrapping_add(seed.rotate_left(i)))
    }

    /// A fiber body that keeps a 512-byte local on its stack across
    /// [`ROUNDS`] suspensions and records where it lives in `at`. It answers
    /// each input `(n, text)` with `(n + sum, text + "!")`, `sum` being the
    /// local's sum read afresh, and returns `(sum, text)` of the last input.
    fn echo(at: Rc<Cell<usize>>) -> impl FnOnce(Suspender<Io, Io>, Io) -> Io {
        move |s, (seed, mut text)| {
            let pattern: [u64; 64] = std::array::from_fn(|i| seed.rotate_left(i as u32));
            at.set(black_box(&pattern).as_ptr() as usize);
            let sum = || {
                black_box(&pattern)
                    .iter()
                    .fold(0u64, |sum, &x| sum.wrapping_add(x))
            };
            let mut n = seed;
            for _ in 0..ROUNDS {
                // SAFETY: called on this fiber's own stack.
                (n, text) = unsafe { s.suspend((n.wrapping_add(sum()), text + "!")) };
            }
            (sum(), text)
        }
    }

    /// An [`echo`] fiber and how far it has been driven.
    struct Echo {
        fiber: Fiber<Io, Io>,
        seed: u64,
        resumes: u64,
        at: Rc<Cell<usize>>,
    }

    impl Echo {
        fn new(stack_size: usize, seed: u64) -> Self {
            let at = Rc::new(Cell::new(0));
            let fiber = Fiber::new(stack_size, echo(Rc::clone(&at)));
            Echo {
                fiber,
                seed,
                resumes: 0,
                at,
            }
        }

        /// Resumes the fiber once and checks the answer `echo` owes.
        fn step(&mut self) {
            let r = self.resumes;
            let n = 1000 * r + self.seed;
            let text = format!("{}/{r}", self.seed);
            let expected = if r < ROUNDS {
                (n.wrapping_add(pattern_sum(self.seed)), format!("{text}!"))
            } else {
                (pattern_sum(self.seed), text.clone())
            };
            assert_eq!(self.fiber.resume((n, text)), expected, "seed {}", self.seed);
            self.resumes += 1;
            assert_eq!(self.fiber.is_finished(), self.resumes > ROUNDS);
        }
    }

    #[test]
    fn a_prefetch_changes_no_value_in_any_state_of_a_fiber() {
        // A size no other test uses, so the cached stack is this test's.
        const SIZE: usize = 72 * 4096;
        let mut released = Echo::new(SIZE, 11);
        while !released.fiber.is_finished() {
            released.fiber.prefetch();
            released.step();
        }
        let released_at = released.at.get();
        drop(released);

        // Never started, suspended, finished, and on the stack just
        // released, whose old contents differ from what it will hold.
        let mut fibers = [
            Echo::new(64 * 1024, 1),
            Echo::new(64 * 1024, 2),
            Echo::new(64 * 1024, 3),
            Echo::new(SIZE, 4),
        ];
        fibers[1].step();
        while !fibers[2].fiber.is_finished() {
            fibers[2].step();
        }
        // Each resume follows a hint to every fiber, as the kernel's
        // resumes follow a hint to the next event's rank.
        for i in [1, 3, 1, 3, 1, 3, 3, 0, 0, 0, 0] {
            for echo in &fibers {
                echo.fiber.prefetch();
            }
            fibers[i].step();
        }
        assert_eq!(fibers[3].at.get(), released_at, "not the cached stack");
        for echo in &fibers {
            echo.fiber.prefetch();
            assert!(echo.fiber.is_finished() && !echo.fiber.is_suspended());
        }
    }

    #[test]
    fn never_started_fiber_drops_cleanly() {
        struct NoteDrop(Rc<Cell<usize>>);
        impl Drop for NoteDrop {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let drops = Rc::new(Cell::new(0));
        let note = NoteDrop(Rc::clone(&drops));
        let f = Fiber::new(64 * 1024, move |_s: Suspender<(), ()>, ()| {
            let _keep = &note;
        });
        drop(f);
        assert_eq!(drops.get(), 1);
    }

    #[test]
    fn float_state_survives_switches() {
        let mut f = Fiber::new(64 * 1024, |s: Suspender<(), f64>, ()| {
            let mut acc = 1.0f64 / 3.0;
            // SAFETY: both calls are on this fiber's own stack.
            unsafe { s.suspend(acc) };
            acc += 2.5;
            unsafe { s.suspend(acc) };
            acc * 3.0
        });
        let mut last = 0.0;
        while !f.is_finished() {
            last = f.resume(());
        }
        assert_eq!(last, (1.0f64 / 3.0 + 2.5) * 3.0);
    }
}
