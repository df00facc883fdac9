//! Property-based equivalence of the collective operations: for arbitrary
//! inputs and machine shapes, the flat and cluster-aware algorithms must
//! produce identical results (they differ only in routing).

use proptest::prelude::*;

use twolayer::net::{Topology, TwoLayerSpec};
use twolayer::rt::coll::{Algo, Coll};
use twolayer::rt::Machine;

fn machine(sizes: &[usize]) -> Machine {
    Machine::new(TwoLayerSpec::new(Topology::new(sizes)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_equivalence(
        sizes in prop::collection::vec(1usize..4, 1..4),
        base in any::<u32>(),
    ) {
        let mut results = Vec::new();
        for algo in [Algo::Flat, Algo::ClusterAware] {
            let report = machine(&sizes).run(move |ctx| {
                let contrib = (base as u64 / 2) + ctx.rank() as u64;
                Coll::new(0, algo).allreduce(ctx, contrib, |a, b| a.wrapping_add(*b))
            }).unwrap();
            results.push(report.results);
        }
        prop_assert_eq!(&results[0], &results[1]);
    }

    #[test]
    fn alltoallv_equivalence(
        sizes in prop::collection::vec(1usize..4, 1..4),
        lens in prop::collection::vec(0usize..6, 12),
    ) {
        let mut results = Vec::new();
        for algo in [Algo::Flat, Algo::ClusterAware] {
            let lens = lens.clone();
            let report = machine(&sizes).run(move |ctx| {
                let p = ctx.nprocs();
                let me = ctx.rank();
                let data: Vec<Vec<u64>> = (0..p)
                    .map(|j| vec![(me * 100 + j) as u64; lens[(me + j) % lens.len()]])
                    .collect();
                Coll::new(0, algo).alltoallv(ctx, data)
            }).unwrap();
            results.push(report.results);
        }
        prop_assert_eq!(&results[0], &results[1]);
    }

    #[test]
    fn scan_equivalence(
        sizes in prop::collection::vec(1usize..4, 1..4),
        vals in prop::collection::vec(any::<u32>(), 12),
    ) {
        let mut results = Vec::new();
        for algo in [Algo::Flat, Algo::ClusterAware] {
            let vals = vals.clone();
            let report = machine(&sizes).run(move |ctx| {
                let contrib = vals[ctx.rank() % vals.len()] as u64;
                Coll::new(0, algo).scan(ctx, contrib, |a, b| a.wrapping_add(*b))
            }).unwrap();
            results.push(report.results);
        }
        prop_assert_eq!(&results[0], &results[1]);
    }

    #[test]
    fn gather_scatter_equivalence(
        sizes in prop::collection::vec(1usize..4, 1..4),
        root_pick in any::<u8>(),
    ) {
        let total: usize = sizes.iter().sum();
        let root = root_pick as usize % total;
        let mut results = Vec::new();
        for algo in [Algo::Flat, Algo::ClusterAware] {
            let report = machine(&sizes).run(move |ctx| {
                let mut coll = Coll::new(0, algo);
                let gathered = coll.gather(ctx, root, ctx.rank() as u64 * 3);
                // root redistributes what it gathered

                coll.scatterv(
                    ctx,
                    root,
                    gathered.map(|g| g.into_iter().map(|v| vec![v, v]).collect()),
                )
            }).unwrap();
            results.push(report.results);
        }
        prop_assert_eq!(&results[0], &results[1]);
        // And each rank got back twice its own contribution.
        for (r, v) in results[0].iter().enumerate() {
            prop_assert_eq!(v.clone(), vec![r as u64 * 3, r as u64 * 3]);
        }
    }

    #[test]
    fn reduce_scatter_equivalence(
        sizes in prop::collection::vec(1usize..4, 1..4),
        scale in 1u64..1000,
    ) {
        let mut results = Vec::new();
        for algo in [Algo::Flat, Algo::ClusterAware] {
            let report = machine(&sizes).run(move |ctx| {
                let p = ctx.nprocs();
                let contrib: Vec<u64> =
                    (0..p).map(|j| scale * (ctx.rank() + j) as u64).collect();
                Coll::new(0, algo).reduce_scatter(ctx, contrib, |a, b| a + b)
            }).unwrap();
            results.push(report.results);
        }
        prop_assert_eq!(&results[0], &results[1]);
    }
}
