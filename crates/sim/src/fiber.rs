//! Minimal stackful coroutines ("fibers"): how the kernel runs ranks inline.
//!
//! Each simulated rank owns a [`Fiber`]: a heap-allocated stack plus a saved
//! machine context. The kernel's event loop *resumes* a fiber with an input
//! value; the rank body runs on its own stack until it hands an output value
//! to [`Suspender::suspend`], at which point control returns to the resumer.
//! Both directions are plain function calls on one OS thread — no lock, no
//! wake, nothing is handed to another thread — and the values travel through
//! two `Option` fields of the fiber's control block.
//!
//! The implementation is deliberately tiny: a hand-rolled x86-64 System V
//! context switch (callee-saved registers + `mxcsr`/x87 control word) written
//! with `global_asm!`. No guard pages are installed; stack overflow in a
//! fiber is undefined behaviour, which is why the default per-rank stack
//! matches the 8 MiB the thread-per-rank mode uses. On non-x86-64 hosts
//! [`SUPPORTED`] is `false`, nothing below it is compiled, and the simulator
//! runs every rank on a thread of its own.

/// Whether this build can run fibers at all.
pub(crate) const SUPPORTED: bool = cfg!(target_arch = "x86_64");

#[cfg(target_arch = "x86_64")]
pub(crate) use imp::{Fiber, Suspender};

#[cfg(target_arch = "x86_64")]
mod imp {
    use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::ptr;

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
    /// stack allocation so a `Fiber` is a single allocation. Only ever
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
        stack: *mut u8,
        layout: Layout,
    }

    /// The running fiber's way back to its resumer; handed to the fiber body.
    pub(crate) struct Suspender<I, O> {
        ctl: *mut Control<I, O>,
    }

    impl<I, O> std::fmt::Debug for Fiber<I, O> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Fiber")
                .field("stack_bytes", &self.layout.size())
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
        /// stack when first resumed, passing it the first resume's input. The
        /// closure must not unwind (the simulator wraps rank bodies in
        /// `catch_unwind`).
        pub(crate) fn new<F>(stack_size: usize, entry: F) -> Self
        where
            F: FnOnce(Suspender<I, O>, I) -> O + 'static,
        {
            assert!(
                std::mem::align_of::<Control<I, O>>() <= 16,
                "fiber control block needs more than the stack's 16-byte alignment"
            );
            let ctl_space = round_up16(std::mem::size_of::<Control<I, O>>());
            let size = round_up16(stack_size.max(ctl_space + 4096));
            let layout = Layout::from_size_align(size, 16).expect("fiber stack layout overflowed");
            // SAFETY: `layout` has non-zero size.
            let stack = unsafe { alloc(layout) };
            if stack.is_null() {
                handle_alloc_error(layout);
            }
            // The control block sits at the very top of the allocation; the
            // usable stack grows down from just below it.
            let sp0 = stack as usize + size - ctl_space;
            let ctl = sp0 as *mut Control<I, O>;
            // SAFETY: `ctl` is 16-aligned, in-bounds, and has `ctl_space`
            // bytes of room.
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
                // the allocation and below the control block.
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
            Fiber { ctl, stack, layout }
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
            // deallocated without being resumed, so values living on it leak
            // — safe (the fiber can never run again); the simulator unwinds
            // suspended ranks before dropping them.
            // SAFETY: we own the allocation and nothing can resume the
            // fiber concurrently.
            unsafe {
                ptr::drop_in_place(self.ctl);
                dealloc(self.stack, self.layout);
            }
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

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
