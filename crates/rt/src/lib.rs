//! # numagap-rt — the message-passing runtime
//!
//! A Panda/Orca-like runtime layered on the simulated two-layer interconnect.
//! SPMD programs run one entry function per rank on a [`Machine`] and
//! communicate through typed tagged messages, blocking RPC, barriers,
//! sequencers, flat tree broadcasts/reductions ([`bcast_flat`],
//! [`reduce_flat`]) and message-combining buffers — the exact primitives the
//! HPCA'99 paper's six applications were built from. [`coll`] adds the
//! fourteen MPI collectives in flat and cluster-aware (MagPIe-like) variants.
//!
//! ```
//! use numagap_rt::Machine;
//! use numagap_net::das_spec;
//! use numagap_sim::Tag;
//!
//! // A 2x2 machine with 10 ms / 1 MB/s wide-area links.
//! let machine = Machine::new(das_spec(2, 2, 10.0, 1.0));
//! let report = machine.run(|ctx| {
//!     if ctx.rank() == 0 {
//!         ctx.send(3, Tag::app(0), 42u32, 4); // crosses the WAN
//!     }
//!     if ctx.rank() == 3 {
//!         return ctx.recv_tag(Tag::app(0)).expect_clone::<u32>();
//!     }
//!     0
//! }).unwrap();
//! assert_eq!(report.results[3], 42);
//! assert!(report.elapsed.as_millis_f64() >= 10.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coll;
mod combine;
mod ctx;
pub mod lint;
mod machine;
pub mod reliable;
mod sync;
pub mod tags;

pub use coll::{bcast_flat, reduce_flat};
pub use combine::{Addressed, ClusterCombiner, Combiner};
pub use ctx::Ctx;
pub use lint::LintRecord;
pub use machine::{Machine, RunReport};
pub use reliable::{Ack, ReliableEnvelope, TransportConfig, TransportStats};
pub use sync::{get_seq, Barrier, SequencerServer};

// `coll::Coll`'s tests: every operation under both algorithm families on
// five machine shapes. They sit at the crate root, not in `coll::tests`, so
// they keep the `tests::…` names they had when `Coll` was its own crate.
#[cfg(test)]
mod tests {
    use crate::coll::{Algo, Coll, Wire};
    use crate::Machine;
    use numagap_net::{das_spec, uniform_spec, Topology, TwoLayerSpec};

    fn machines() -> Vec<Machine> {
        vec![
            Machine::new(uniform_spec(1)),
            Machine::new(uniform_spec(5)),
            Machine::new(das_spec(2, 3, 2.0, 1.0)),
            Machine::new(das_spec(4, 2, 5.0, 0.5)),
            Machine::new(TwoLayerSpec::new(Topology::new(&[1, 3, 2]))),
        ]
    }

    fn both() -> [Algo; 2] {
        [Algo::Flat, Algo::ClusterAware]
    }

    #[test]
    fn bcast_all_machines() {
        for machine in machines() {
            for algo in both() {
                let report = machine
                    .run(move |ctx| {
                        let data = if ctx.rank() == 0 {
                            Some(vec![1.5f64, 2.5])
                        } else {
                            None
                        };
                        Coll::new(0, algo).bcast(ctx, 0, data)
                    })
                    .unwrap();
                for r in report.results {
                    assert_eq!(r, vec![1.5, 2.5]);
                }
            }
        }
    }

    #[test]
    fn bcast_nonzero_root() {
        for machine in machines() {
            let p = machine.spec().topology.nprocs();
            let root = p - 1;
            for algo in both() {
                let report = machine
                    .run(move |ctx| {
                        let data = if ctx.rank() == root { Some(9u8) } else { None };
                        Coll::new(0, algo).bcast(ctx, root, data)
                    })
                    .unwrap();
                assert_eq!(report.results, vec![9u8; p]);
            }
        }
    }

    #[test]
    fn reduce_and_allreduce() {
        for machine in machines() {
            let p = machine.spec().topology.nprocs();
            let expected: u64 = (0..p as u64).sum();
            for algo in both() {
                let report = machine
                    .run(move |ctx| {
                        let mut coll = Coll::new(1, algo);
                        let r = coll.reduce(ctx, 0, ctx.rank() as u64, |a, b| a + b);
                        let ar = coll.allreduce(ctx, ctx.rank() as u64, |a, b| a + b);
                        (r, ar)
                    })
                    .unwrap();
                assert_eq!(report.results[0].0, Some(expected));
                for (_, ar) in &report.results {
                    assert_eq!(*ar, expected);
                }
            }
        }
    }

    #[test]
    fn gather_rank_order() {
        for machine in machines() {
            let p = machine.spec().topology.nprocs();
            for algo in both() {
                let report = machine
                    .run(move |ctx| Coll::new(2, algo).gather(ctx, 0, ctx.rank() as u32 * 10))
                    .unwrap();
                let expected: Vec<u32> = (0..p as u32).map(|r| r * 10).collect();
                assert_eq!(report.results[0], Some(expected));
            }
        }
    }

    #[test]
    fn gatherv_variable_lengths() {
        for machine in machines() {
            for algo in both() {
                let report = machine
                    .run(move |ctx| {
                        let contrib: Vec<u8> = vec![ctx.rank() as u8; ctx.rank() + 1];
                        Coll::new(3, algo).gatherv(ctx, 0, contrib)
                    })
                    .unwrap();
                let got = report.results[0].as_ref().unwrap();
                for (r, v) in got.iter().enumerate() {
                    assert_eq!(v, &vec![r as u8; r + 1]);
                }
            }
        }
    }

    #[test]
    fn scatter_and_scatterv() {
        for machine in machines() {
            let p = machine.spec().topology.nprocs();
            for algo in both() {
                let report = machine
                    .run(move |ctx| {
                        let data = if ctx.rank() == 0 {
                            Some((0..p as u64).map(|r| r * 7).collect())
                        } else {
                            None
                        };
                        Coll::new(4, algo).scatter(ctx, 0, data)
                    })
                    .unwrap();
                for (r, v) in report.results.iter().enumerate() {
                    assert_eq!(*v, r as u64 * 7);
                }
            }
        }
    }

    #[test]
    fn allgather_everywhere() {
        for machine in machines() {
            let p = machine.spec().topology.nprocs();
            for algo in both() {
                let report = machine
                    .run(move |ctx| Coll::new(5, algo).allgather(ctx, ctx.rank() as u16))
                    .unwrap();
                let expected: Vec<u16> = (0..p as u16).collect();
                for r in &report.results {
                    assert_eq!(*r, expected);
                }
            }
        }
    }

    #[test]
    fn allgatherv_everywhere() {
        for machine in machines() {
            for algo in both() {
                let report = machine
                    .run(move |ctx| {
                        let contrib = vec![ctx.rank() as u64; 2];
                        Coll::new(5, algo).allgatherv(ctx, contrib)
                    })
                    .unwrap();
                for r in &report.results {
                    for (i, v) in r.iter().enumerate() {
                        assert_eq!(v, &vec![i as u64; 2]);
                    }
                }
            }
        }
    }

    #[test]
    fn alltoall_permutes() {
        for machine in machines() {
            let p = machine.spec().topology.nprocs();
            for algo in both() {
                let report = machine
                    .run(move |ctx| {
                        let me = ctx.rank();
                        let data: Vec<u32> = (0..p as u32).map(|j| me as u32 * 100 + j).collect();
                        Coll::new(6, algo).alltoall(ctx, data)
                    })
                    .unwrap();
                for (i, row) in report.results.iter().enumerate() {
                    for (j, &v) in row.iter().enumerate() {
                        assert_eq!(v, j as u32 * 100 + i as u32, "recv[{j}] at rank {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn alltoallv_variable() {
        for machine in machines() {
            let p = machine.spec().topology.nprocs();
            for algo in both() {
                let report = machine
                    .run(move |ctx| {
                        let me = ctx.rank();
                        let data: Vec<Vec<u8>> = (0..p).map(|j| vec![me as u8; j + 1]).collect();
                        Coll::new(7, algo).alltoallv(ctx, data)
                    })
                    .unwrap();
                for (i, rows) in report.results.iter().enumerate() {
                    for (j, row) in rows.iter().enumerate() {
                        assert_eq!(row, &vec![j as u8; i + 1]);
                    }
                }
            }
        }
    }

    #[test]
    fn scan_prefix_sums() {
        for machine in machines() {
            for algo in both() {
                let report = machine
                    .run(move |ctx| {
                        Coll::new(8, algo).scan(ctx, ctx.rank() as u64 + 1, |a, b| a + b)
                    })
                    .unwrap();
                for (i, v) in report.results.iter().enumerate() {
                    let expected: u64 = (1..=i as u64 + 1).sum();
                    assert_eq!(*v, expected, "prefix at rank {i} ({algo:?})");
                }
            }
        }
    }

    #[test]
    fn aware_scan_charges_every_local_message_its_full_size() {
        // 16 KB per element on the wire: the in-cluster chain and the
        // offset broadcast of the second cluster both carry whole vectors.
        let report = Machine::new(das_spec(2, 4, 10.0, 1.0))
            .run(|ctx| {
                let v = vec![ctx.rank() as f64; 2048];
                let add =
                    |a: &Vec<f64>, b: &Vec<f64>| a.iter().zip(b).map(|(x, y)| x + y).collect();
                Coll::new(13, Algo::ClusterAware).scan(ctx, v, add)[0]
            })
            .unwrap();
        assert_eq!(report.results[7], 28.0);
        let net = &report.net_stats;
        assert!(
            net.intra_payload_bytes >= net.intra_msgs * 16_384,
            "{} local messages carried only {} bytes",
            net.intra_msgs,
            net.intra_payload_bytes
        );
    }

    #[test]
    fn reduce_scatter_elementwise() {
        for machine in machines() {
            let p = machine.spec().topology.nprocs();
            for algo in both() {
                let report = machine
                    .run(move |ctx| {
                        let me = ctx.rank();
                        let contrib: Vec<u64> = (0..p as u64).map(|j| me as u64 + j).collect();
                        Coll::new(9, algo).reduce_scatter(ctx, contrib, |a, b| a + b)
                    })
                    .unwrap();
                for (i, v) in report.results.iter().enumerate() {
                    let expected: u64 = (0..p as u64).map(|m| m + i as u64).sum();
                    assert_eq!(*v, expected);
                }
            }
        }
    }

    #[test]
    fn barrier_completes_on_all_machines() {
        for machine in machines() {
            for algo in both() {
                machine
                    .run(move |ctx| {
                        let mut coll = Coll::new(10, algo);
                        for _ in 0..3 {
                            coll.barrier(ctx);
                        }
                    })
                    .unwrap();
            }
        }
    }

    #[test]
    fn aware_bcast_is_faster_and_leaner_on_wide_area() {
        // 4x7: on power-of-two machines with contiguous clusters the flat
        // binomial tree happens to be near-hierarchical, so compare off it.
        let run = |algo| {
            Machine::new(das_spec(4, 7, 10.0, 1.0))
                .run(move |ctx| {
                    let data = if ctx.rank() == 0 {
                        Some(vec![0u8; 10_000])
                    } else {
                        None
                    };
                    Coll::new(11, algo).bcast(ctx, 0, data).len()
                })
                .unwrap()
        };
        let flat = run(Algo::Flat);
        let aware = run(Algo::ClusterAware);
        assert!(aware.net_stats.inter_payload_bytes < flat.net_stats.inter_payload_bytes);
        assert!(aware.elapsed < flat.elapsed);
    }

    #[test]
    fn sequences_of_mixed_ops_do_not_cross_talk() {
        let machine = Machine::new(das_spec(2, 4, 2.0, 1.0));
        machine
            .run(|ctx| {
                let mut coll = Coll::new(12, Algo::ClusterAware);
                for round in 0..5u64 {
                    let s = coll.allreduce(ctx, round + ctx.rank() as u64, |a, b| a + b);
                    let g = coll.allgather(ctx, s);
                    assert!(g.iter().all(|&x| x == g[0]));
                    coll.barrier(ctx);
                }
            })
            .unwrap();
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(7u64.wire_bytes(), 8);
        assert_eq!(vec![1u32, 2, 3].wire_bytes(), 12);
        assert_eq!((1u8, vec![0.5f64]).wire_bytes(), 9);
        assert_eq!(Some(3u32).wire_bytes(), 4);
        assert_eq!(None::<u32>.wire_bytes(), 0);
        assert_eq!(().wire_bytes(), 0);
    }
}
