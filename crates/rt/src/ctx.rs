//! The per-process runtime context: topology-aware typed messaging.

use std::any::Any;
use std::sync::Arc;

use numagap_net::Topology;
use numagap_sim::{Filter, Message, Payload, ProcCtx, ProcId, SimDuration, SimTime, Tag};

use crate::tags::rpc_reply_tag;

/// Runtime view of one simulated processor.
///
/// Wraps the raw simulator context with the machine's [`Topology`] and typed
/// convenience operations. Application code receives a `&mut Ctx<'_>` as its
/// entry argument from [`crate::Machine::run`].
pub struct Ctx<'a> {
    sim: &'a mut ProcCtx,
    topo: Arc<Topology>,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("rank", &self.rank())
            .field("cluster", &self.cluster())
            .field("now", &self.now())
            .finish_non_exhaustive()
    }
}

impl<'a> Ctx<'a> {
    /// Wraps a raw simulator context. Used by [`crate::Machine`]; application
    /// code never calls this.
    pub fn new(sim: &'a mut ProcCtx, topo: Arc<Topology>) -> Self {
        Ctx { sim, topo }
    }

    /// This process's rank in `0..nprocs`.
    pub fn rank(&self) -> usize {
        self.sim.rank()
    }

    /// Total number of processes.
    pub fn nprocs(&self) -> usize {
        self.sim.nprocs()
    }

    /// The machine's cluster layout.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Cluster index of this process.
    pub fn cluster(&self) -> usize {
        self.topo.cluster_of_rank(self.rank())
    }

    /// Number of clusters in the machine.
    pub fn nclusters(&self) -> usize {
        self.topo.nclusters()
    }

    /// Ranks in this process's cluster.
    pub fn cluster_members(&self) -> &[usize] {
        self.topo.members(self.cluster())
    }

    /// The designated coordinator rank of this process's cluster.
    pub fn cluster_root(&self) -> usize {
        self.topo.cluster_root(self.cluster())
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Spends virtual CPU time. `d` is the *nominal* cost; on
    /// heterogeneous machines it is scaled by this rank's cluster compute
    /// speed ([`Topology::scale_compute`]), so a rank in a half-speed
    /// cluster burns twice the virtual time for the same work.
    pub fn compute(&mut self, d: SimDuration) {
        let d = self.topo.scale_compute(self.sim.rank(), d);
        self.sim.compute(d);
    }

    /// Spends virtual CPU time given in nanoseconds (convenient for cost
    /// models that compute `f64` nanosecond totals). Scaled by the rank's
    /// cluster compute speed like [`Ctx::compute`].
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn compute_ns(&mut self, ns: f64) {
        assert!(ns.is_finite() && ns >= 0.0, "invalid compute time {ns}ns");
        self.compute(SimDuration::from_nanos(ns.round() as u64));
    }

    /// Sends `value` to `dst` under `tag`, charging `wire_bytes`.
    pub fn send<T: Any + Send + Sync>(&mut self, dst: usize, tag: Tag, value: T, wire_bytes: u64) {
        self.send_payload(dst, tag, Arc::new(value), wire_bytes);
    }

    /// Sends a shared payload (no deep copy; cheap for multicast fan-out).
    pub fn send_payload(&mut self, dst: usize, tag: Tag, payload: Payload, wire_bytes: u64) {
        self.sim.send_payload(ProcId(dst), tag, payload, wire_bytes);
    }

    /// Blocks until a message matching `filter` arrives.
    pub fn recv(&mut self, filter: Filter) -> Message {
        self.sim.recv(filter)
    }

    /// Blocks until any message with `tag` arrives.
    pub fn recv_tag(&mut self, tag: Tag) -> Message {
        self.recv(Filter::tag(tag))
    }

    /// Blocks until a message with `tag` from `src` arrives.
    pub fn recv_from(&mut self, src: usize, tag: Tag) -> Message {
        self.recv(Filter::tag(tag).from(ProcId(src)))
    }

    /// Non-blocking poll for a matching message.
    pub fn try_recv(&mut self, filter: Filter) -> Option<Message> {
        self.sim.try_recv(filter)
    }

    /// Receives a message with `tag` and clones out a typed payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload type does not match (a protocol bug).
    pub fn recv_typed<T: Any + Send + Sync + Clone>(&mut self, tag: Tag) -> (usize, T) {
        let m = self.recv_tag(tag);
        let v = m.expect_clone::<T>();
        (m.src.0, v)
    }

    /// Blocking remote procedure call: sends `req` to `dst` under
    /// `service_tag` and waits for the reply.
    ///
    /// The server must answer with [`Ctx::reply`]. Each rank has one
    /// outstanding RPC at a time (this call blocks), so reply routing is by
    /// caller rank.
    pub fn rpc<Req, Resp>(&mut self, dst: usize, service_tag: Tag, req: Req, req_bytes: u64) -> Resp
    where
        Req: Any + Send + Sync,
        Resp: Any + Send + Sync + Clone,
    {
        self.send(dst, service_tag, req, req_bytes);
        let reply = self.recv(Filter::tag(rpc_reply_tag(self.rank())).from(ProcId(dst)));
        reply.expect_clone::<Resp>()
    }

    /// Replies to an RPC request message received under a service tag.
    pub fn reply<Resp: Any + Send + Sync>(&mut self, request: &Message, resp: Resp, bytes: u64) {
        self.send(request.src.0, rpc_reply_tag(request.src.0), resp, bytes);
    }
}

#[cfg(test)]
mod tests {
    use crate::Machine;
    use numagap_net::{uniform_spec, Topology, TwoLayerSpec};
    use numagap_sim::{Filter, Tag};

    #[test]
    fn topology_accessors() {
        let machine = Machine::new(TwoLayerSpec::new(Topology::symmetric(2, 2)));
        let report = machine
            .run(|ctx| (ctx.rank(), ctx.cluster(), ctx.cluster_root()))
            .unwrap();
        assert_eq!(
            report.results,
            vec![(0, 0, 0), (1, 0, 0), (2, 1, 2), (3, 1, 2)]
        );
    }

    #[test]
    fn heterogeneous_clusters_scale_compute_time() {
        use numagap_sim::SimDuration;
        // Cluster 0 at 0.4x speed, cluster 1 nominal: the same nominal
        // compute costs 2.5x more virtual time on cluster 0.
        let topo = Topology::symmetric(2, 2).with_cluster_speeds(&[400, 1000]);
        let machine = Machine::new(TwoLayerSpec::new(topo));
        let report = machine
            .run(|ctx| {
                ctx.compute(SimDuration::from_micros(100));
                ctx.compute_ns(100_000.0);
                ctx.now().as_nanos()
            })
            .unwrap();
        assert_eq!(report.results[0], 500_000, "slow cluster: 2 x 250us");
        assert_eq!(report.results[2], 200_000, "nominal cluster: 2 x 100us");
    }

    #[test]
    fn rpc_round_trip() {
        let machine = Machine::new(uniform_spec(2));
        let tag = crate::tags::service_tag(0);
        let report = machine
            .run(move |ctx| {
                if ctx.rank() == 0 {
                    // Server: answer one doubled value.
                    let req = ctx.recv_tag(tag);
                    let v = *req.expect_ref::<u64>();
                    ctx.reply(&req, v * 2, 8);
                    0
                } else {
                    ctx.rpc::<u64, u64>(0, tag, 21, 8)
                }
            })
            .unwrap();
        assert_eq!(report.results[1], 42);
    }

    #[test]
    fn typed_recv() {
        let machine = Machine::new(uniform_spec(2));
        let report = machine
            .run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, Tag::app(3), vec![1.0f64, 2.0], 16);
                    Vec::new()
                } else {
                    let (src, v): (usize, Vec<f64>) = ctx.recv_typed(Tag::app(3));
                    assert_eq!(src, 0);
                    v
                }
            })
            .unwrap();
        assert_eq!(report.results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn try_recv_is_polling() {
        let machine = Machine::new(uniform_spec(2));
        machine
            .run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, Tag::app(0), (), 1);
                } else {
                    while ctx.try_recv(Filter::any()).is_none() {
                        ctx.compute(numagap_sim::SimDuration::from_micros(10));
                    }
                }
            })
            .unwrap();
    }
}
