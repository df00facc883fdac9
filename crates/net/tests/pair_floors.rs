//! The sparse per-pair floors against the dense table they replaced.
//!
//! Until floors were kept per pair that communicated, the network held one
//! `SimTime` for every ordered pair of ranks — `nprocs²` of them, 134 MB at
//! 4 096 ranks — and applied the FIFO rule through it. That table and rule
//! are kept here verbatim as the reference; [`PairFloors`] must answer every
//! seeded stream of `(src, dst, arrival)` exactly as it does, and a reset
//! must forget everything.

use numagap_net::{LinkParams, PairFloors, Topology, TwoLayerSpec};
use numagap_sim::{Network, ProcId, SimDuration, SimTime};

/// Deterministic xorshift64*, as in `link_properties.rs`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// The parent's floor table: one entry per ordered pair, indexed
/// `src * nprocs + dst`.
struct DenseFloors {
    nprocs: usize,
    pair_floor: Vec<SimTime>,
}

impl DenseFloors {
    fn new(nprocs: usize) -> Self {
        DenseFloors {
            nprocs,
            pair_floor: vec![SimTime::ZERO; nprocs * nprocs],
        }
    }

    /// The tail of the parent's `TwoLayerNetwork::transfer`, unchanged.
    fn admit(&mut self, src: usize, dst: usize, arrival: SimTime) -> SimTime {
        let floor = &mut self.pair_floor[src * self.nprocs + dst];
        let arrival = if arrival <= *floor {
            *floor + SimDuration::from_nanos(1)
        } else {
            arrival
        };
        *floor = arrival;
        arrival
    }
}

type Stream = Vec<(usize, usize, SimTime)>;

/// Every ordered pair (self-sends included) of `nprocs` ranks, `rounds`
/// times over, arrivals drawn from a window narrow enough that a pair's
/// later message often lands before, or exactly on, its earlier one.
fn all_to_all(nprocs: usize, rounds: u64, rng: &mut Rng) -> Stream {
    let mut stream = Vec::new();
    for round in 0..rounds {
        for src in 0..nprocs {
            for dst in 0..nprocs {
                let at = round * 40 + rng.below(100);
                stream.push((src, dst, SimTime::from_nanos(at)));
            }
        }
    }
    stream
}

/// Random pairs with arrivals from a handful of instants, time zero among
/// them: repeated and equal arrivals are the common case.
fn repeats(nprocs: usize, len: usize, rng: &mut Rng) -> Stream {
    (0..len)
        .map(|_| {
            let src = rng.below(nprocs as u64) as usize;
            let dst = rng.below(nprocs as u64) as usize;
            (src, dst, SimTime::from_nanos(rng.below(6) * 7))
        })
        .collect()
}

/// The peers of the scale skeleton: each rank's ring neighbours and its
/// binomial-tree partners at every power-of-two distance, in a shuffled
/// order of ranks so rows fill and grow out of step.
fn ring_and_binomial(nprocs: usize, rounds: u64, rng: &mut Rng) -> Stream {
    let mut stream = Vec::new();
    for round in 0..rounds {
        for _ in 0..nprocs {
            let src = rng.below(nprocs as u64) as usize;
            let mut peers = vec![(src + 1) % nprocs, (src + nprocs - 1) % nprocs];
            let mut span = 1;
            while span < nprocs {
                if src & span != 0 {
                    peers.push(src - span);
                } else if src + span < nprocs {
                    peers.push(src + span);
                }
                span <<= 1;
            }
            for dst in peers {
                let at = round * 1_000 + rng.below(3_000);
                stream.push((src, dst, SimTime::from_nanos(at)));
            }
        }
    }
    stream
}

fn assert_same_answers(sparse: &mut PairFloors, nprocs: usize, stream: &Stream, what: &str) {
    let mut dense = DenseFloors::new(nprocs);
    for (i, &(src, dst, arrival)) in stream.iter().enumerate() {
        assert_eq!(
            sparse.admit(src, dst, arrival),
            dense.admit(src, dst, arrival),
            "{what}: message {i}, {src} -> {dst} arriving at {arrival}"
        );
    }
}

#[test]
fn sparse_floors_answer_every_stream_as_the_dense_table_does() {
    for seed in 1..=4u64 {
        let mut rng = Rng::new(seed);
        // (ranks, stream): the paper's 4x8 machine, an asymmetric 3+5+2
        // one, and the 64x64 machine of the scale sweep.
        let streams = [
            (32, all_to_all(32, 6, &mut rng)),
            (10, repeats(10, 4_000, &mut rng)),
            (10, all_to_all(10, 3, &mut rng)),
            (4096, ring_and_binomial(4096, 2, &mut rng)),
            (32, repeats(32, 4_000, &mut rng)),
        ];
        // One table through all of them: every stream starts from a reset
        // of whatever the one before left, rows grown and all, against a
        // dense table that starts from zeros.
        let mut sparse = PairFloors::default();
        for (n, (nprocs, stream)) in streams.iter().enumerate() {
            sparse.reset(*nprocs);
            assert_same_answers(
                &mut sparse,
                *nprocs,
                stream,
                &format!("seed {seed} stream {n}"),
            );
        }
    }
}

#[test]
fn a_pair_that_never_communicated_has_its_floor_at_time_zero() {
    // The dense table started every floor at zero, so a first message
    // arriving *at* time zero was delivered a nanosecond later; a missing
    // entry has to mean the same.
    let mut floors = PairFloors::default();
    floors.reset(4);
    assert_eq!(floors.admit(1, 2, SimTime::ZERO), SimTime::from_nanos(1));
    assert_eq!(floors.admit(1, 2, SimTime::ZERO), SimTime::from_nanos(2));
    assert_eq!(
        floors.admit(2, 1, SimTime::from_nanos(9)),
        SimTime::from_nanos(9)
    );
    floors.reset(4);
    assert_eq!(floors.admit(1, 2, SimTime::ZERO), SimTime::from_nanos(1));
}

#[test]
fn a_reset_network_has_no_floor_left() {
    // A loopback message costs the send overhead and books no link, so its
    // arrival shows the pair's floor and nothing else.
    let spec = TwoLayerSpec::new(Topology::new(&[3, 5, 2]));
    let overhead = spec.send_overhead;
    let inter = LinkParams::wide_area(3.0, 0.7);
    let mut net = spec.build();
    let late = SimTime::from_nanos(1_000_000);
    let early = SimTime::from_nanos(10);
    for rank in 0..10 {
        let p = ProcId(rank);
        assert_eq!(net.transfer(p, p, 8, late), late + overhead);
        // Behind its predecessor: held until just after it.
        let held = late + overhead + SimDuration::from_nanos(1);
        assert_eq!(net.transfer(p, p, 8, early), held);
    }
    net.reset(inter);
    for rank in 0..10 {
        let p = ProcId(rank);
        assert_eq!(net.transfer(p, p, 8, early), early + overhead);
    }
}
