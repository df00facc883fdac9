//! Reuse leaks nothing. A [`Replayer`] answers point after point on one
//! network and one set of scratch vectors; whatever order the points and
//! recordings come in, each answer has to be the one a replayer built for
//! that point alone gives — and the traced loop has to time every op and
//! message as the loop it replaced did.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use numagap_apps::{variants, AppId, Scale, SuiteConfig, Variant};
use numagap_model::{record_app, replay, CommDag, Op, Replay, Replayer};
use numagap_net::{das_spec, LinkParams, TwoLayerNetwork, TwoLayerSpec, WanTopology};
use numagap_rt::Machine;
use numagap_sim::{Network, SimTime};

/// Deterministic xorshift, as in the JSON parser's tests.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `n` WAN link classes, log-uniform over the paper's fig3 ranges
/// (0.1–300 ms, 0.03–10 MByte/s), in a seeded shuffled order.
fn points(seed: u64, n: usize) -> Vec<LinkParams> {
    let mut state = seed | 1;
    let mut log_uniform = |lo: f64, hi: f64| {
        let unit = (xorshift(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        (lo.ln() + unit * (hi.ln() - lo.ln())).exp()
    };
    (0..n)
        .map(|_| LinkParams::wide_area(log_uniform(0.1, 300.0), log_uniform(0.03, 10.0)))
        .collect()
}

fn record(app: AppId, variant: Variant, spec: TwoLayerSpec) -> CommDag {
    let cfg = SuiteConfig::at(Scale::Small);
    let (_, dag) = record_app(app, &cfg, variant, &Machine::new(spec))
        .unwrap_or_else(|e| panic!("{app}/{variant} records: {e}"));
    dag
}

/// What a replayer built for this one point answers.
fn fresh(dag: &CommDag, inter: LinkParams) -> numagap_sim::SimDuration {
    replay(dag, &dag.base_spec.clone().inter(inter)).elapsed
}

/// `replayer` asked for every point in order, then in reverse, against the
/// fresh answers: going back over the list meets each point with different
/// leftovers from the first time.
fn assert_reuse_matches_fresh(name: &str, replayer: &mut Replayer, dag: &CommDag, n: usize) {
    let points = points(0x5EED ^ dag.msgs.len() as u64, n);
    let want: Vec<_> = points.iter().map(|&inter| fresh(dag, inter)).collect();
    for (i, &inter) in points.iter().enumerate() {
        assert_eq!(
            replayer.makespan(dag, inter),
            want[i],
            "{name} point {i} forward"
        );
    }
    for (i, &inter) in points.iter().enumerate().rev() {
        assert_eq!(
            replayer.makespan(dag, inter),
            want[i],
            "{name} point {i} back"
        );
    }
}

/// `replay` as it stood before `Replayer`: a network and every vector built
/// per call, the instants stored unconditionally. Kept as written — it is
/// the reference the one generic loop is held to, field for field.
fn reference_replay(dag: &CommDag, spec: &TwoLayerSpec) -> Replay {
    let n = dag.nprocs();
    let mut net = TwoLayerNetwork::new(spec.clone());
    let nmsgs = dag.msgs.len();
    let mut clock = vec![SimTime::ZERO; n];
    let mut pc = vec![0usize; n];
    let mut op_end: Vec<Vec<SimTime>> = dag
        .ops
        .iter()
        .map(|ops| Vec::with_capacity(ops.len()))
        .collect();
    let mut sent_at = vec![SimTime::ZERO; nmsgs];
    let mut arrival: Vec<Option<SimTime>> = vec![None; nmsgs];
    let mut deliver_seq = vec![0u64; nmsgs];
    let mut parked: Vec<Option<usize>> = vec![None; nmsgs];
    let mut finish = vec![SimTime::ZERO; n];
    let mut heap: BinaryHeap<Reverse<(SimTime, u64, usize)>> = BinaryHeap::new();
    let mut evseq = 0u64;
    for p in 0..n {
        heap.push(Reverse((SimTime::ZERO, evseq, p)));
        evseq += 1;
    }
    let mut pending: Vec<(SimTime, usize, u64, usize)> = Vec::new();
    let mut sends_by_rank = vec![0u64; n];
    let mut now = SimTime::ZERO;
    loop {
        let at_boundary = heap.peek().is_none_or(|&Reverse((t, _, _))| t > now);
        if at_boundary && !pending.is_empty() {
            pending.sort_unstable_by_key(|&(at, src, idx, _)| (at, src, idx));
            for (at, _, _, seq) in pending.drain(..) {
                let m = dag.msgs[seq];
                let arrives = net.transfer(m.src, m.dst, m.wire_bytes, at);
                arrival[seq] = Some(arrives);
                deliver_seq[seq] = evseq;
                evseq += 1;
                if let Some(w) = parked[seq].take() {
                    heap.push(Reverse((arrives, deliver_seq[seq], w)));
                }
            }
            continue;
        }
        let Some(Reverse((slot_time, slot_seq, p))) = heap.pop() else {
            break;
        };
        now = slot_time;
        loop {
            let Some(&op) = dag.ops[p].get(pc[p]) else {
                finish[p] = clock[p];
                break;
            };
            match op {
                Op::Compute(d) => {
                    clock[p] += d;
                    op_end[p].push(clock[p]);
                    pc[p] += 1;
                    heap.push(Reverse((clock[p], evseq, p)));
                    evseq += 1;
                    break;
                }
                Op::Send { seq } => {
                    sent_at[seq as usize] = clock[p];
                    pending.push((clock[p], p, sends_by_rank[p], seq as usize));
                    sends_by_rank[p] += 1;
                    clock[p] += net.send_overhead();
                    op_end[p].push(clock[p]);
                    pc[p] += 1;
                }
                Op::Recv { seq } => match arrival[seq as usize] {
                    Some(a) => {
                        let dseq = deliver_seq[seq as usize];
                        if (a, dseq) > (slot_time, slot_seq) {
                            heap.push(Reverse((a, dseq, p)));
                            break;
                        }
                        clock[p] = clock[p].max(a) + net.recv_overhead();
                        op_end[p].push(clock[p]);
                        pc[p] += 1;
                    }
                    None => {
                        parked[seq as usize] = Some(p);
                        break;
                    }
                },
            }
        }
    }
    let elapsed = finish
        .iter()
        .copied()
        .max()
        .unwrap_or(SimTime::ZERO)
        .since(SimTime::ZERO);
    let arrival = arrival
        .into_iter()
        .enumerate()
        .map(|(seq, a)| a.unwrap_or(sent_at[seq]))
        .collect();
    Replay {
        elapsed,
        finish,
        op_end,
        sent_at,
        arrival,
    }
}

fn assert_same_replay(name: &str, got: &Replay, want: &Replay) {
    assert_eq!(got.elapsed, want.elapsed, "{name}: elapsed");
    assert_eq!(got.finish, want.finish, "{name}: finish");
    assert_eq!(got.op_end, want.op_end, "{name}: op_end");
    assert_eq!(got.sent_at, want.sent_at, "{name}: sent_at");
    assert_eq!(got.arrival, want.arrival, "{name}: arrival");
}

#[test]
fn one_replayer_answers_every_recording_like_a_fresh_one() {
    let spec = das_spec(4, 8, 10.0, 0.3);
    // One replayer for the whole suite, as a predict worker holds it.
    let mut replayer = Replayer::new(&spec);
    let mut previous: Option<(String, CommDag)> = None;
    let mut pairs = 0;
    for app in AppId::ALL {
        for &variant in variants(app) {
            let name = format!("{app}/{variant}");
            let dag = record(app, variant, spec.clone());
            assert_reuse_matches_fresh(&name, &mut replayer, &dag, 50);

            // The predict grid hands a worker whichever recording its next
            // cell names: alternate this one with the last.
            if let Some((other_name, other)) = &previous {
                for (i, inter) in points(pairs, 6).into_iter().enumerate() {
                    for (name, dag) in [(&name, &dag), (other_name, other)] {
                        assert_eq!(
                            replayer.makespan(dag, inter),
                            fresh(dag, inter),
                            "{name} alternating, point {i}"
                        );
                    }
                }
            }

            // Trace on: the public entry point and a much-used replayer
            // both time everything as the loop they replaced did.
            for inter in points(pairs ^ 0xACE, 2) {
                let at = dag.base_spec.clone().inter(inter);
                let want = reference_replay(&dag, &at);
                assert_same_replay(&name, &replay(&dag, &at), &want);
                assert_same_replay(&name, &replayer.replay(&dag, inter), &want);
            }
            previous = Some((name, dag));
            pairs += 1;
        }
    }
    assert_eq!(pairs, 11, "the suite's app/variant pairs");
}

#[test]
fn every_piece_of_network_state_is_restored_between_points() {
    let base = || das_spec(4, 8, 10.0, 0.3);
    // One machine per piece of state `TwoLayerNetwork::reset` restores
    // beyond plain link occupancy: multi-hop routes through gateways and
    // through virtual switches, and the jitter counter.
    let machines = [
        ("ring", base().wan_topology(WanTopology::Ring)),
        (
            "fattree",
            base().wan_topology(WanTopology::FatTree { pod: 2 }),
        ),
        ("jitter", base().wan_latency_jitter(0.25)),
    ];
    for (name, spec) in machines {
        let mut replayer = Replayer::new(&spec);
        let dags = [
            record(AppId::Asp, Variant::Optimized, spec.clone()),
            record(AppId::Water, Variant::Unoptimized, spec.clone()),
        ];
        for dag in &dags {
            assert_reuse_matches_fresh(name, &mut replayer, dag, 50);
        }
    }
}
