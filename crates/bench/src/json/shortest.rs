//! The shortest decimal digits of an `f64` that read back as it: Ryū (Ulf
//! Adams, "Ryū: fast float-to-string conversion", PLDI 2018). The source
//! holds the small tables of its reference implementation: each power of
//! five the algorithm needs is a 128-bit entry times at most 5^25, corrected
//! by a two-bit offset, so it equals the full table's entry exactly
//! (`tests::tables_are_the_exact_powers_of_five` rebuilds every one from
//! 5^i). The full tables are worked out from them when the crate compiles,
//! so a call looks its power up: one 64 × 128-bit multiply per bound, no
//! allocation.
//!
//! One choice follows `std` rather than the paper, so that the digits are
//! the ones `{}` prints: an exact tie between two shortest candidates rounds
//! up (Ryū rounds it to even).

/// Bits of every table entry: `POW5[b]` is 5^(26b) scaled into
/// `[2^124, 2^125)`, `INV_POW5[b]` is `⌊2^(bits(5^26b) - 1 + 125) / 5^26b⌋ + 1`.
const BITS: i32 = 125;

const POW5: [(u64, u64); 13] = [
    (0, 1152921504606846976),
    (0, 1490116119384765625),
    (1032610780636961552, 1925929944387235853),
    (7910200175544436838, 1244603055572228341),
    (16941905809032713930, 1608611746708759036),
    (13024893955298202172, 2079081953128979843),
    (6607496772837067824, 1343575221513417750),
    (17332926989895652603, 1736530273035216783),
    (13037379183483547984, 2244412773384604712),
    (1605989338741628675, 1450417759929778918),
    (9630225068416591280, 1874621017369538693),
    (665883850346957067, 1211445438634777304),
    (14931890668723713708, 1565756531257009982),
];

const INV_POW5: [(u64, u64); 13] = [
    (1, 2305843009213693952),
    (5955668970331000884, 1784059615882449851),
    (8982663654677661702, 1380349269358112757),
    (7286864317269821294, 2135987035920910082),
    (7005857020398200553, 1652639921975621497),
    (17965325103354776697, 1278668206209430417),
    (8928596168509315048, 1978643211784836272),
    (10075671573058298858, 1530901034580419511),
    (597001226353042382, 1184477304306571148),
    (1527430471115325346, 1832889850782397517),
    (12533209867169019542, 1418129833677084982),
    (5577825024675947042, 2194449627517475473),
    (11006974540203867551, 1697873161311732311),
];

/// What the product of a table entry and 5^k falls short of the exact entry
/// by, two bits per power: `OFFSETS[i / 16] >> (2 * (i % 16)) & 3`.
const POW5_OFFSETS: [u32; 21] = [
    0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x40000000, 0x59695995, 0x55545555, 0x56555515,
    0x41150504, 0x40555410, 0x44555145, 0x44504540, 0x45555550, 0x40004000, 0x96440440, 0x55565565,
    0x54454045, 0x40154151, 0x55559155, 0x51405555, 0x00000105,
];

const INV_POW5_OFFSETS: [u32; 19] = [
    0x54544554, 0x04055545, 0x10041000, 0x00400414, 0x40010000, 0x41155555, 0x00000454, 0x00010044,
    0x40000000, 0x44000041, 0x50454450, 0x55550054, 0x51655554, 0x40004000, 0x01000001, 0x00010500,
    0x51515411, 0x05555554, 0x00000000,
];

/// 5^0 ..= 5^25, the steps between table entries.
const SMALL_POW5: [u64; 26] = {
    let mut t = [1; 26];
    let mut i = 1;
    while i < t.len() {
        t[i] = t[i - 1] * 5;
        i += 1;
    }
    t
};

/// `⌈log2 5^e⌉`, and 1 for `e = 0`: the bit length of 5^e.
const fn pow5_bits(e: u32) -> i32 {
    ((e * 1217359) >> 19) as i32 + 1
}

const fn offset(table: &[u32], i: u32) -> u128 {
    ((table[(i / 16) as usize] >> (2 * (i % 16))) & 3) as u128
}

/// `(m × (hi·2^64 + lo)) >> delta`, for `0 < delta < 64`.
const fn scaled(m: u64, (lo, hi): (u64, u64), delta: i32) -> u128 {
    let (b0, b2) = (m as u128 * lo as u128, m as u128 * hi as u128);
    (b0 >> delta) + (b2 << (64 - delta))
}

/// 5^i as `BITS` significant bits.
const fn pow5(i: u32) -> u128 {
    let base = i / 26;
    let (lo, hi) = POW5[base as usize];
    match i % 26 {
        0 => (hi as u128) << 64 | lo as u128,
        k => {
            let delta = pow5_bits(i) - pow5_bits(base * 26);
            scaled(SMALL_POW5[k as usize], (lo, hi), delta) + offset(&POW5_OFFSETS, i)
        }
    }
}

/// 5^-i as `BITS` significant bits, plus one.
const fn inv_pow5(i: u32) -> u128 {
    let base = i.div_ceil(26);
    let (lo, hi) = INV_POW5[base as usize];
    match base * 26 - i {
        0 => (hi as u128) << 64 | lo as u128,
        k => {
            let delta = pow5_bits(base * 26) - pow5_bits(i);
            scaled(SMALL_POW5[k as usize], (lo - 1, hi), delta) + 1 + offset(&INV_POW5_OFFSETS, i)
        }
    }
}

/// 5^i for `i < 326` and 5^-i for `i < 291`: every power a finite `f64`
/// needs, as [`pow5`] and [`inv_pow5`] work them out.
static TABLES: ([u128; 326], [u128; 291]) = {
    let (mut pow, mut inv) = ([0; 326], [0; 291]);
    let mut i = 0;
    while i < pow.len() {
        pow[i] = pow5(i as u32);
        if i < inv.len() {
            inv[i] = inv_pow5(i as u32);
        }
        i += 1;
    }
    (pow, inv)
};

/// `(m × mul) >> j`, for `j ≥ 64` and a result that fits 64 bits.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = (u128::from(m) * (mul as u64 as u128)) >> 64;
    ((low + u128::from(m) * (mul >> 64)) >> (j - 64)) as u64
}

/// Whether 5^p divides `v`.
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `(digits, exponent)` with `v = digits × 10^exponent`: the fewest decimal
/// digits that read back as `v`, of those the closest to `v`. `v` is finite
/// and greater than zero.
pub(super) fn shortest(v: f64) -> (u64, i32) {
    let bits = v.to_bits();
    let (mantissa, exponent) = (bits & ((1 << 52) - 1), (bits >> 52) as u32 & 0x7FF);
    let (e2, m2) = match exponent {
        0 => (1 - 1023 - 52 - 2, mantissa),
        e => (e as i32 - 1023 - 52 - 2, 1 << 52 | mantissa),
    };
    let accept_bounds = m2.is_multiple_of(2);
    // The interval is `[mm, mp]` around `mv`, in quarter units of the last
    // place (open ends when the mantissa is odd).
    let mv = 4 * m2;
    // Below a power of two the next `f64` down is half as far away.
    let mm_shift = u64::from(mantissa != 0);
    let (mm, mp) = (mv - 1 - mm_shift, mv + 2);
    // Whether `vm` below is exact, the lower bound itself. (Ryū also tracks
    // whether `vr` is, to round a tie to even; rounding a tie up needs not.)
    let mut vm_zeros = false;
    // `vr`, `vp` and `vm` are `mv`, `mp` and `mm` × 2^e2 / 10^e10, truncated
    // to about 17 digits: a product with 5^-q (or 5^i) shifted right by `j`.
    let (q, e10, mul, j) = if e2 >= 0 {
        let q = ((e2 as u32 * 78913) >> 18) - u32::from(e2 > 3);
        let j = -e2 + q as i32 + BITS + pow5_bits(q) - 1;
        (q, q as i32, TABLES.1[q as usize], j)
    } else {
        let q = (((-e2) as u32 * 732923) >> 20) - u32::from(-e2 > 1);
        let i = (-e2) as u32 - q;
        let j = q as i32 - pow5_bits(i) + BITS;
        (q, q as i32 + e2, TABLES.0[i as usize], j)
    };
    let [mut vr, mut vp, mut vm] = [mv, mp, mm].map(|m| mul_shift(m, mul, j));
    // Where the products are exact (few powers of 5 or 2 to divide out),
    // an exact bound is kept only where the interval is closed.
    if e2 >= 0 && q <= 21 && !mv.is_multiple_of(5) {
        // Only one of `mp`, `mv` and `mm` can be a multiple of 5, if any.
        if accept_bounds {
            vm_zeros = multiple_of_pow5(mm, q);
        } else {
            vp -= u64::from(multiple_of_pow5(mp, q));
        }
    } else if e2 < 0 && q <= 1 {
        // `mp` has a trailing zero bit, and `mm` one iff `mm_shift`.
        if accept_bounds {
            vm_zeros = mm_shift == 1;
        } else {
            vp -= 1;
        }
    }

    // Drop digits while the interval still holds a shorter candidate, and
    // past that the zeros of an exact lower bound.
    let (mut removed, mut last) = (0, 0);
    if !vm_zeros && vp / 100 > vm / 100 {
        // Two at once where the interval allows, as Ryū does: for rounding,
        // `last` need only say whether they were 50 or more.
        last = 5 * u64::from(vr % 100 >= 50);
        (vr, vp, vm, removed) = (vr / 100, vp / 100, vm / 100, 2);
    }
    while vp / 10 > vm / 10 || (vm_zeros && vm.is_multiple_of(10)) {
        vm_zeros &= vm.is_multiple_of(10);
        last = vr % 10;
        (vr, vp, vm, removed) = (vr / 10, vp / 10, vm / 10, removed + 1);
    }
    // The nearer of `vr` and `vr + 1`, a tie rounded up as `std` rounds it;
    // `vr` only if it is inside the interval.
    let output = vr + u64::from((vr == vm && !(accept_bounds && vm_zeros)) || last >= 5);
    (output, e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `5^i` as little-endian 32-bit limbs.
    fn power_of_five(i: u32) -> Vec<u64> {
        let mut limbs = vec![1u64];
        for _ in 0..i {
            let mut carry = 0;
            for limb in &mut limbs {
                let x = *limb * 5 + carry;
                (*limb, carry) = (x & 0xFFFF_FFFF, x >> 32);
            }
            if carry > 0 {
                limbs.push(carry);
            }
        }
        limbs
    }

    fn bit_len(limbs: &[u64]) -> i32 {
        let top = limbs.last().expect("at least one limb");
        32 * limbs.len() as i32 - 32 + (64 - top.leading_zeros() as i32)
    }

    /// Bits `[from, from + 128)` of the number (`from` may be negative: the
    /// bits below zero are zeros).
    fn window(limbs: &[u64], from: i32) -> u128 {
        (0..128).fold(0u128, |acc, k| {
            let bit = from + k;
            let set = bit >= 0
                && limbs
                    .get(bit as usize / 32)
                    .is_some_and(|l| l >> (bit as usize % 32) & 1 == 1);
            acc | (u128::from(set) << k)
        })
    }

    /// `⌊2^shift / d⌋` by long division, for a quotient under 2^128.
    fn reciprocal(d: &[u64], shift: i32) -> u128 {
        // The remainder, as limbs; the numerator's bits enter one at a time.
        let mut rem: Vec<u64> = vec![0; d.len() + 1];
        let mut quotient = 0u128;
        for bit in (0..=shift).rev() {
            // rem = 2 * rem + (bit == shift)
            let mut carry = u64::from(bit == shift);
            for limb in &mut rem {
                let x = *limb * 2 + carry;
                (*limb, carry) = (x & 0xFFFF_FFFF, x >> 32);
            }
            let ge = (0..rem.len()).rev().find_map(|k| {
                let dk = d.get(k).copied().unwrap_or(0);
                (rem[k] != dk).then_some(rem[k] > dk)
            });
            if ge.unwrap_or(true) {
                let mut borrow = 0i64;
                for (k, limb) in rem.iter_mut().enumerate() {
                    let x = *limb as i64 - d.get(k).copied().unwrap_or(0) as i64 - borrow;
                    (*limb, borrow) = ((x & 0xFFFF_FFFF) as u64, i64::from(x < 0));
                }
                quotient |= 1 << bit;
            }
        }
        quotient
    }

    #[test]
    fn tables_are_the_exact_powers_of_five() {
        for (i, &entry) in TABLES.0.iter().enumerate() {
            let p = power_of_five(i as u32);
            assert_eq!(entry, window(&p, bit_len(&p) - BITS), "5^{i}");
        }
        for (i, &entry) in TABLES.1.iter().enumerate() {
            let p = power_of_five(i as u32);
            let want = reciprocal(&p, bit_len(&p) - 1 + BITS) + 1;
            assert_eq!(entry, want, "5^-{i}");
        }
    }
}
