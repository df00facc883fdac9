//! Per-pair FIFO floors, kept only for pairs that have communicated.

use std::fmt;

use numagap_sim::{SimDuration, SimTime};

/// The last arrival of every ordered `(src, dst)` pair that has exchanged a
/// message, and the rule that keeps each pair's deliveries in send order.
///
/// Gap-filling link occupancy lets a small late message slip into an idle
/// gap a larger earlier message of the same pair skipped; the floor
/// restores the per-pair FIFO delivery the applications and the ordering
/// contract rely on (the overtaking message is held and delivered just
/// after its predecessor, as an in-order transport would).
///
/// A rank talks to a handful of peers even on a machine of thousands, so
/// the floors are one small row per source holding only the destinations
/// it has sent to: memory follows traffic, not `nprocs²`. A row is an
/// open-addressed table that is only ever probed by key — nothing iterates
/// it, so no slot order can reach a result.
#[derive(Default)]
pub struct PairFloors {
    rows: Vec<Row>,
}

/// One source's floors: `(dst + 1, floor)` slots, key `0` marking an empty
/// one. The length is zero or a power of two, and at most half the slots
/// are taken, so a probe always ends.
#[derive(Default)]
struct Row {
    slots: Vec<(usize, SimTime)>,
    taken: usize,
}

/// Slots of a row's first allocation: four peers before it regrows.
const FIRST_SLOTS: usize = 8;

/// Where the probe for `key` starts in a row of `len` slots (a power of
/// two): multiplicative hashing, so neighbouring ranks spread out.
#[inline]
fn home(key: usize, len: usize) -> usize {
    ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (len - 1)
}

/// The slot holding `key`, or the empty one its probe ends at.
#[inline]
fn find(slots: &[(usize, SimTime)], key: usize) -> usize {
    let mut at = home(key, slots.len());
    while slots[at].0 != key && slots[at].0 != 0 {
        at = (at + 1) & (slots.len() - 1);
    }
    at
}

impl Row {
    /// The floor slot of `key`, claimed (at `SimTime::ZERO`, which is what
    /// a pair that never communicated has) if the row did not hold it yet.
    #[inline]
    fn slot(&mut self, key: usize) -> &mut SimTime {
        if self.slots.is_empty() {
            self.grow();
        }
        let mut at = find(&self.slots, key);
        if self.slots[at].0 == 0 {
            // A new key must not leave the row more than half full.
            if (self.taken + 1) * 2 > self.slots.len() {
                self.grow();
                at = find(&self.slots, key);
            }
            self.slots[at].0 = key;
            self.taken += 1;
        }
        &mut self.slots[at].1
    }

    /// Doubles the row (or gives it its first slots) and re-seats every
    /// floor it holds.
    #[cold]
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(FIRST_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![(0, SimTime::ZERO); len]);
        for (key, floor) in old.into_iter().filter(|&(key, _)| key != 0) {
            let at = find(&self.slots, key);
            self.slots[at] = (key, floor);
        }
    }

    fn clear(&mut self) {
        self.slots.fill((0, SimTime::ZERO));
        self.taken = 0;
    }
}

impl PairFloors {
    /// No pair of `nprocs` ranks has communicated: every floor is gone,
    /// every row keeps the slots it had grown to.
    pub fn reset(&mut self, nprocs: usize) {
        self.rows.iter_mut().for_each(Row::clear);
        self.rows.resize_with(nprocs, Row::default);
    }

    /// Delivery time of a message from `src` to `dst` that the links would
    /// deliver at `arrival`: never before, nor at the same instant as, an
    /// earlier message of the same ordered pair. The result is the pair's
    /// new floor.
    #[inline]
    pub fn admit(&mut self, src: usize, dst: usize, arrival: SimTime) -> SimTime {
        let floor = self.rows[src].slot(dst + 1);
        let arrival = if arrival <= *floor {
            *floor + SimDuration::from_nanos(1)
        } else {
            arrival
        };
        *floor = arrival;
        arrival
    }
}

/// The floors as sorted `(src, dst, floor)` triples: the same for any two
/// tables holding the same floors, whatever their rows have grown to and
/// in whatever order they were filled.
impl fmt::Debug for PairFloors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut floors: Vec<(usize, usize, SimTime)> = Vec::new();
        for (src, row) in self.rows.iter().enumerate() {
            for &(key, floor) in row.slots.iter().filter(|&&(key, _)| key != 0) {
                floors.push((src, key - 1, floor));
            }
        }
        floors.sort_unstable();
        f.debug_list().entries(floors).finish()
    }
}
