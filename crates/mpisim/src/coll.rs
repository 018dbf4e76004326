//! Collective operations.
//!
//! Two interchangeable backends:
//!
//! * [`CollBackend::Algorithmic`] — real message-passing algorithms
//!   (dissemination barrier, binomial broadcast/reduce/gather, pairwise
//!   all-to-all) built on the point-to-point layer. Costs emerge from
//!   the network model. Used at small scale and to validate the
//!   analytic model.
//! * [`CollBackend::Analytic`] — LogGP-style closed-form cost with
//!   exact synchronisation semantics (no rank proceeds before the last
//!   arrival, results identical to the algorithmic backend). Used for
//!   the 512-rank paper sweeps, where pairwise all-to-all would cost
//!   P² messages per two-phase round.
//!
//! Either way a collective is a true synchronisation point: its cost to
//! each rank includes waiting for the slowest participant — the effect
//! the paper's `shuffle_all2all` / `post_write` breakdown terms measure.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use e10_simcore::{sleep, Flag, SimDuration};

use crate::comm::{waitall, Comm, SourceSel, Tag};

/// Which collective implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollBackend {
    /// Message-passing algorithms over p2p.
    #[default]
    Algorithmic,
    /// Closed-form cost model with exact synchronisation semantics.
    Analytic,
}

const COLL_TAG_BASE: Tag = 0x4000_0000;

struct Slot {
    contribs: Vec<Option<Box<dyn Any>>>,
    arrived: usize,
    flag: Flag,
    result: Option<Rc<dyn Any>>,
    taken: usize,
}

pub(crate) struct CollShared {
    pub(crate) backend: CollBackend,
    slots: RefCell<HashMap<u64, Slot>>,
    counters: RefCell<Vec<u64>>,
}

impl CollShared {
    pub(crate) fn new(backend: CollBackend, size: usize) -> Rc<Self> {
        Rc::new(CollShared {
            backend,
            slots: RefCell::new(HashMap::new()),
            counters: RefCell::new(vec![0; size]),
        })
    }
}

fn ceil_log2(n: usize) -> u32 {
    usize::BITS - (n - 1).leading_zeros()
}

/// The shared result of a sparse `u64` all-to-all: every rank's
/// non-zero `(dst, value)` pairs, bucketed by destination with a
/// counting sort. Rank `d`'s column is `entries[starts[d]..starts[d + 1]]`
/// as `(src, value)` pairs in ascending `src` order.
struct SparseColumns {
    starts: Vec<usize>,
    entries: Vec<(usize, u64)>,
}

impl SparseColumns {
    /// Bucket the contributions (one `Vec<(usize, u64)>` per source
    /// rank) in O(p + nnz), consuming them.
    fn build(contribs: &mut Vec<Option<Box<dyn Any>>>) -> Self {
        let p = contribs.len();
        let mut starts = vec![0usize; p + 1];
        for c in contribs.iter() {
            let row = c
                .as_ref()
                .expect("missing contribution")
                .downcast_ref::<Vec<(usize, u64)>>()
                .expect("alltoall type mismatch");
            for &(dst, _) in row {
                starts[dst + 1] += 1;
            }
        }
        for d in 0..p {
            starts[d + 1] += starts[d];
        }
        let mut cursor = starts.clone();
        let mut entries = vec![(0, 0); starts[p]];
        for (src, c) in contribs.iter_mut().enumerate() {
            let row = c
                .take()
                .and_then(|c| c.downcast::<Vec<(usize, u64)>>().ok())
                .expect("contribution checked in the counting pass");
            for &(dst, v) in row.iter() {
                entries[cursor[dst]] = (src, v);
                cursor[dst] += 1;
            }
        }
        SparseColumns { starts, entries }
    }

    fn column(&self, dst: usize) -> &[(usize, u64)] {
        &self.entries[self.starts[dst]..self.starts[dst + 1]]
    }
}

impl Comm {
    fn coll(&self) -> Rc<CollShared> {
        Rc::clone(&self.state.coll)
    }

    fn next_op(&self) -> u64 {
        let mut c = self.state.coll.counters.borrow_mut();
        let id = c[self.rank];
        c[self.rank] += 1;
        id
    }

    fn op_tag(&self, opid: u64, phase: u32) -> Tag {
        COLL_TAG_BASE + ((opid % 4096) as Tag) * 64 + phase
    }

    /// Rendezvous all ranks on `opid`, contribute a value, and have the
    /// last arrival build the shared result. Returns after every rank
    /// has arrived (synchronisation semantics), with the shared result.
    async fn sync_slot<R: 'static>(
        &self,
        opid: u64,
        contrib: Box<dyn Any>,
        build: impl FnOnce(&mut Vec<Option<Box<dyn Any>>>) -> R,
    ) -> Rc<R> {
        let coll = self.coll();
        let size = self.size();
        let flag = {
            let mut slots = coll.slots.borrow_mut();
            let slot = slots.entry(opid).or_insert_with(|| Slot {
                contribs: (0..size).map(|_| None).collect(),
                arrived: 0,
                flag: Flag::new(),
                result: None,
                taken: 0,
            });
            assert!(
                slot.contribs[self.rank].is_none(),
                "rank {} joined collective op {opid} twice — mismatched collective order",
                self.rank
            );
            slot.contribs[self.rank] = Some(contrib);
            slot.arrived += 1;
            if slot.arrived == size {
                let r = build(&mut slot.contribs);
                slot.result = Some(Rc::new(r));
                slot.flag.set();
            }
            slot.flag.clone()
        };
        flag.wait().await;
        let mut slots = coll.slots.borrow_mut();
        let slot = slots.get_mut(&opid).expect("collective slot vanished");
        let result = slot
            .result
            .as_ref()
            .expect("collective result missing")
            .clone()
            .downcast::<R>()
            .expect("collective result type mismatch");
        slot.taken += 1;
        if slot.taken == size {
            slots.remove(&opid);
        }
        result
    }

    // ---- cost model (Analytic backend) -------------------------------

    fn alpha(&self) -> SimDuration {
        let cfg = self.state.net.config();
        cfg.latency + cfg.overhead + cfg.overhead
    }

    fn beta(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.state.net.config().node_bw)
    }

    fn cost_barrier(&self) -> SimDuration {
        self.alpha() * ceil_log2(self.size().max(2)) as u64
    }

    fn cost_bcast(&self, bytes: u64) -> SimDuration {
        (self.alpha() + self.beta(bytes)) * ceil_log2(self.size().max(2)) as u64
    }

    fn cost_allreduce(&self, bytes: u64) -> SimDuration {
        (self.alpha() + self.beta(bytes)) * (2 * ceil_log2(self.size().max(2))) as u64
    }

    fn cost_allgather(&self, bytes_each: u64) -> SimDuration {
        self.alpha() * ceil_log2(self.size().max(2)) as u64
            + self.beta(bytes_each * self.size() as u64)
    }

    fn cost_alltoall(&self, total_bytes_per_rank: u64) -> SimDuration {
        let o = self.state.net.config().overhead;
        o * (self.size() as u64 - 1).max(1)
            + self.state.net.config().latency
            + self.beta(total_bytes_per_rank)
    }

    // ---- public collectives -------------------------------------------

    /// `MPI_Barrier`.
    pub async fn barrier(&self) {
        let opid = self.next_op();
        match self.coll().backend {
            CollBackend::Analytic => {
                self.sync_slot(opid, Box::new(()), |_| ()).await;
                sleep(self.cost_barrier()).await;
            }
            CollBackend::Algorithmic => {
                let p = self.size();
                if p == 1 {
                    return;
                }
                let mut k = 0u32;
                let mut step = 1usize;
                while step < p {
                    let dst = (self.rank + step) % p;
                    let src = (self.rank + p - step) % p;
                    let tag = self.op_tag(opid, k);
                    let s = self.isend(dst, tag, 0, ());
                    let r = self.irecv(SourceSel::Rank(src), tag);
                    s.wait().await;
                    r.wait().await;
                    step <<= 1;
                    k += 1;
                }
            }
        }
    }

    /// `MPI_Bcast`: `root` supplies `Some(value)`, everyone returns it.
    pub async fn bcast<T: Clone + 'static>(&self, root: usize, v: Option<T>, bytes: u64) -> T {
        let opid = self.next_op();
        if self.rank == root {
            assert!(v.is_some(), "bcast root must supply the value");
        }
        match self.coll().backend {
            CollBackend::Analytic => {
                let contrib: Box<dyn Any> = Box::new(v);
                let out = self
                    .sync_slot(opid, contrib, move |contribs| {
                        contribs[root]
                            .take()
                            .expect("root contribution missing")
                            .downcast::<Option<T>>()
                            .expect("bcast type mismatch")
                            .expect("bcast root must supply the value")
                    })
                    .await;
                sleep(self.cost_bcast(bytes)).await;
                (*out).clone()
            }
            CollBackend::Algorithmic => {
                let p = self.size();
                let vr = (self.rank + p - root) % p;
                let logp = if p == 1 { 0 } else { ceil_log2(p) };
                let mut val = v;
                // Receive once from the parent (phase = position of the
                // highest set bit of vr).
                if vr != 0 {
                    let k = usize::BITS - 1 - vr.leading_zeros();
                    let parent = (vr - (1 << k) + root) % p;
                    let m = self
                        .recv(SourceSel::Rank(parent), self.op_tag(opid, k))
                        .await;
                    val = Some(m.into_data::<T>());
                }
                let val = val.expect("bcast value must be set after receive");
                // Forward to children.
                let first = if vr == 0 {
                    0
                } else {
                    usize::BITS - vr.leading_zeros()
                };
                for k in first..logp {
                    let child = vr + (1 << k);
                    if child < p {
                        let dst = (child + root) % p;
                        self.send(dst, self.op_tag(opid, k), bytes, val.clone())
                            .await;
                    }
                }
                val
            }
        }
    }

    /// `MPI_Allreduce` with a user combiner (must be associative and
    /// commutative, like the MPI built-in ops it stands in for).
    pub async fn allreduce<T: Clone + 'static>(
        &self,
        v: T,
        bytes: u64,
        op: impl Fn(&T, &T) -> T + Clone + 'static,
    ) -> T {
        let opid = self.next_op();
        match self.coll().backend {
            CollBackend::Analytic => {
                let contrib: Box<dyn Any> = Box::new(v);
                let op2 = op.clone();
                let out = self
                    .sync_slot(opid, contrib, move |contribs| {
                        let mut acc: Option<T> = None;
                        for c in contribs.iter_mut() {
                            let x = c
                                .take()
                                .expect("missing contribution")
                                .downcast::<T>()
                                .expect("allreduce type mismatch");
                            acc = Some(match acc {
                                None => *x,
                                Some(a) => op2(&a, &x),
                            });
                        }
                        acc.expect("empty communicator")
                    })
                    .await;
                sleep(self.cost_allreduce(bytes)).await;
                (*out).clone()
            }
            CollBackend::Algorithmic => {
                // Binomial reduce to rank 0, then broadcast.
                let p = self.size();
                let mut acc = v;
                let vr = self.rank;
                let logp = if p == 1 { 0 } else { ceil_log2(p) };
                for k in 0..logp {
                    let bit = 1usize << k;
                    if vr & (bit - 1) != 0 {
                        continue; // already sent up in an earlier phase
                    }
                    if vr & bit != 0 {
                        let dst = vr - bit;
                        self.send(dst, self.op_tag(opid, k), bytes, acc.clone())
                            .await;
                        break;
                    } else if vr + bit < p {
                        let m: T = self.recv_from(vr + bit, self.op_tag(opid, k)).await;
                        acc = op(&acc, &m);
                    }
                }
                self.bcast(0, if vr == 0 { Some(acc) } else { None }, bytes)
                    .await
            }
        }
    }

    /// `MPI_Allgather`: every rank contributes one value, everyone gets
    /// the full vector indexed by rank.
    pub async fn allgather<T: Clone + 'static>(&self, v: T, bytes: u64) -> Vec<T> {
        let opid = self.next_op();
        match self.coll().backend {
            CollBackend::Analytic => {
                let contrib: Box<dyn Any> = Box::new(v);
                let out = self
                    .sync_slot(opid, contrib, move |contribs| {
                        contribs
                            .iter_mut()
                            .map(|c| {
                                *c.take()
                                    .expect("missing contribution")
                                    .downcast::<T>()
                                    .expect("allgather type mismatch")
                            })
                            .collect::<Vec<T>>()
                    })
                    .await;
                sleep(self.cost_allgather(bytes)).await;
                (*out).clone()
            }
            CollBackend::Algorithmic => {
                // Ring allgather: P-1 steps, each forwarding one block.
                let p = self.size();
                let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
                out[self.rank] = Some(v);
                let next = (self.rank + 1) % p;
                let prev = (self.rank + p - 1) % p;
                let tag = self.op_tag(opid, 0);
                for s in 0..p.saturating_sub(1) {
                    let send_idx = (self.rank + p - s) % p;
                    let val = out[send_idx].clone().expect("ring hole");
                    let sreq = self.isend(next, tag, bytes, val);
                    let m: T = self.recv_from(prev, tag).await;
                    let recv_idx = (self.rank + p - s - 1) % p;
                    out[recv_idx] = Some(m);
                    sreq.wait().await;
                }
                out.into_iter().map(|x| x.expect("ring hole")).collect()
            }
        }
    }

    /// `MPI_Alltoall`: `v[i]` goes to rank `i`; returns the vector of
    /// values received (index = source rank). `bytes_each` is the wire
    /// size of one element.
    pub async fn alltoall<T: Clone + 'static>(&self, v: Vec<T>, bytes_each: u64) -> Vec<T> {
        let total = bytes_each * v.len() as u64;
        self.exchange(v, total, |_| bytes_each).await
    }

    /// `MPI_Alltoallv`: like [`alltoall`](Self::alltoall) with per-
    /// destination wire sizes.
    pub async fn alltoallv<T: Clone + 'static>(&self, v: Vec<T>, bytes: &[u64]) -> Vec<T> {
        assert_eq!(bytes.len(), self.size());
        self.exchange(v, bytes.iter().sum(), |dst| bytes[dst]).await
    }

    /// The all-to-all both public forms share: `total` is this rank's
    /// summed send size (the analytic cost), `bytes(dst)` the wire size
    /// of the message to `dst` (the algorithmic sends).
    async fn exchange<T: Clone + 'static>(
        &self,
        v: Vec<T>,
        total: u64,
        bytes: impl Fn(usize) -> u64,
    ) -> Vec<T> {
        let p = self.size();
        assert_eq!(v.len(), p, "alltoall needs one element per rank");
        let opid = self.next_op();
        match self.coll().backend {
            CollBackend::Analytic => {
                let contrib: Box<dyn Any> = Box::new(v);
                let out = self
                    .sync_slot(opid, contrib, move |contribs| {
                        // Build the full matrix once; each rank extracts
                        // its column below (shared as Vec<Vec<T>>).
                        contribs
                            .iter_mut()
                            .map(|c| {
                                *c.take()
                                    .expect("missing contribution")
                                    .downcast::<Vec<T>>()
                                    .expect("alltoall type mismatch")
                            })
                            .collect::<Vec<Vec<T>>>()
                    })
                    .await;
                sleep(self.cost_alltoall(total)).await;
                (0..p).map(|src| out[src][self.rank].clone()).collect()
            }
            CollBackend::Algorithmic => {
                let tag = self.op_tag(opid, 0);
                let mut v: Vec<Option<T>> = v.into_iter().map(Some).collect();
                let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
                out[self.rank] = v[self.rank].take();
                let mut reqs = Vec::new();
                for s in 1..p {
                    let dst = (self.rank + s) % p;
                    reqs.push(self.isend(dst, tag, bytes(dst), v[dst].take().unwrap()));
                }
                for _ in 1..p {
                    let m = self.recv(SourceSel::Any, tag).await;
                    let src = m.src;
                    out[src] = Some(m.into_data::<T>());
                }
                waitall(reqs).await;
                out.into_iter().map(|x| x.expect("alltoall hole")).collect()
            }
        }
    }

    /// `MPI_Alltoall` of one `u64` per rank in place, the shape of the
    /// two-phase round loop's size dissemination: `buf[i]` is sent to
    /// rank `i` and replaced by the value received *from* rank `i`.
    /// Results, virtual times and the opid sequence are identical to
    /// `alltoall(buf.to_vec(), bytes_each)` on either backend.
    ///
    /// * Algorithmic: allocation-free in steady state. `sreqs` is
    ///   caller-owned scratch for the sends (drained on return); wire
    ///   behaviour — send order, per-message size, matching — is that
    ///   of `alltoall`.
    /// * Analytic: sparse. Each rank scans only its own `buf` and
    ///   sends its non-zero entries through the rendezvous; the last
    ///   arrival buckets them by destination in O(p + nnz). No p×p
    ///   matrix is built or gathered by column, while the charged cost
    ///   stays that of the dense exchange. Each rank allocates one
    ///   vector of its non-zero `(dst, value)` pairs plus the slot's
    ///   box; the last arrival allocates the bucket index and entries.
    ///   `sreqs` is unused.
    pub async fn alltoall_u64_inplace(
        &self,
        buf: &mut [u64],
        bytes_each: u64,
        sreqs: &mut Vec<crate::comm::Request>,
    ) {
        let p = self.size();
        assert_eq!(buf.len(), p, "alltoall needs one element per rank");
        let opid = self.next_op();
        if self.coll().backend == CollBackend::Analytic {
            let row: Vec<(usize, u64)> = buf
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0)
                .map(|(dst, &v)| (dst, v))
                .collect();
            let cols = self
                .sync_slot(opid, Box::new(row), SparseColumns::build)
                .await;
            sleep(self.cost_alltoall(bytes_each * p as u64)).await;
            buf.fill(0);
            for &(src, v) in cols.column(self.rank) {
                buf[src] = v;
            }
            return;
        }
        let tag = self.op_tag(opid, 0);
        debug_assert!(sreqs.is_empty());
        for s in 1..p {
            let dst = (self.rank + s) % p;
            sreqs.push(self.isend(dst, tag, bytes_each, buf[dst]));
        }
        for _ in 1..p {
            let m = self.recv(SourceSel::Any, tag).await;
            let src = m.src;
            buf[src] = m.into_data::<u64>();
        }
        for r in sreqs.drain(..) {
            r.wait().await;
        }
    }

    /// `MPI_Comm_split`: partition the communicator by `color`; ranks
    /// with equal color form a new communicator, ordered by
    /// `(key, old rank)`. Collective over the parent communicator.
    ///
    /// The rendezvous uses the shared-slot mechanism (so it works under
    /// both backends) and is charged like a small allgather.
    pub async fn split(&self, color: u32, key: u64) -> Comm {
        use crate::comm::CommState;
        use std::collections::HashMap;

        let opid = self.next_op();
        let net = crate::comm::Comm::network(self);
        let node_of_parent = self.node_map();
        let backend = self.coll().backend;
        let contrib: Box<dyn std::any::Any> = Box::new((color, key, self.rank));
        let shared = self
            .sync_slot(opid, contrib, move |contribs| {
                let mut groups: HashMap<u32, Vec<(u64, usize)>> = HashMap::new();
                for c in contribs.iter_mut() {
                    let (color, key, rank) = *c
                        .take()
                        .expect("missing contribution")
                        .downcast::<(u32, u64, usize)>()
                        .expect("split type mismatch");
                    groups.entry(color).or_default().push((key, rank));
                }
                let mut out: HashMap<u32, (Vec<usize>, Rc<CommState>)> = HashMap::new();
                let mut colors: Vec<u32> = groups.keys().copied().collect();
                colors.sort_unstable();
                for color in colors {
                    let mut members = groups.remove(&color).unwrap();
                    members.sort_unstable();
                    let ranks: Vec<usize> = members.into_iter().map(|(_, r)| r).collect();
                    let node_of = ranks.iter().map(|&r| node_of_parent[r]).collect();
                    let coll = CollShared::new(backend, ranks.len());
                    let state = CommState::new_shared(ranks.len(), node_of, Rc::clone(&net), coll);
                    out.insert(color, (ranks, state));
                }
                out
            })
            .await;
        sleep(self.cost_allgather(16)).await;
        let (ranks, state) = shared.get(&color).expect("split color vanished");
        let rank = ranks
            .iter()
            .position(|&r| r == self.rank)
            .expect("rank missing from its own split group");
        Comm {
            state: Rc::clone(state),
            rank,
        }
    }

    /// `MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)`: split into
    /// intra-node sub-communicators — ranks sharing a compute node form
    /// one communicator, ordered by their rank in `self`. Rank 0 of
    /// each sub-communicator (the node's lowest parent rank) is the
    /// natural node leader. Collective over the parent communicator.
    pub async fn split_by_node(&self) -> Comm {
        self.split(self.node() as u32, self.rank() as u64).await
    }

    /// `MPI_Gather` to `root`: returns `Some(vec)` on the root, `None`
    /// elsewhere.
    pub async fn gather<T: Clone + 'static>(
        &self,
        root: usize,
        v: T,
        bytes: u64,
    ) -> Option<Vec<T>> {
        // Implemented over allgather: same synchronisation semantics,
        // slightly pessimistic cost for non-roots (acceptable — ROMIO
        // uses gather only for small control data).
        let all = self.allgather(v, bytes).await;
        if self.rank == root {
            Some(all)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{launch, WorldSpec};
    use e10_simcore::{now, run, SimTime};

    fn both_backends(test: impl Fn(CollBackend) + Copy) {
        test(CollBackend::Algorithmic);
        test(CollBackend::Analytic);
    }

    fn spec(p: usize, backend: CollBackend) -> WorldSpec {
        let mut s = WorldSpec::for_tests(p, (p / 2).max(1));
        s.backend = backend;
        s
    }

    #[test]
    fn barrier_synchronises_all_ranks() {
        both_backends(|b| {
            run(async move {
                let outs = launch(spec(7, b), |comm| async move {
                    e10_simcore::sleep(e10_simcore::SimDuration::from_secs(comm.rank() as u64))
                        .await;
                    comm.barrier().await;
                    now().as_secs_f64()
                })
                .await;
                for t in &outs {
                    assert!(*t >= 6.0, "{b:?}: left barrier at {t} before slowest");
                }
            });
        });
    }

    #[test]
    fn bcast_delivers_root_value() {
        both_backends(|b| {
            run(async move {
                for root in [0usize, 3, 6] {
                    let outs = launch(spec(7, b), move |comm| async move {
                        let v = if comm.rank() == root {
                            Some(format!("payload-{root}"))
                        } else {
                            None
                        };
                        comm.bcast(root, v, 100).await
                    })
                    .await;
                    for v in outs {
                        assert_eq!(v, format!("payload-{root}"), "{b:?} root={root}");
                    }
                }
            });
        });
    }

    #[test]
    fn allreduce_min_max_sum() {
        both_backends(|b| {
            run(async move {
                let outs = launch(spec(9, b), |comm| async move {
                    let r = comm.rank() as u64;
                    let mx = comm.allreduce(r, 8, |a, b| *a.max(b)).await;
                    let mn = comm.allreduce(r, 8, |a, b| *a.min(b)).await;
                    let sum = comm.allreduce(r, 8, |a, b| a + b).await;
                    (mx, mn, sum)
                })
                .await;
                for (mx, mn, sum) in outs {
                    assert_eq!((mx, mn, sum), (8, 0, 36), "{b:?}");
                }
            });
        });
    }

    #[test]
    fn allgather_orders_by_rank() {
        both_backends(|b| {
            run(async move {
                let outs = launch(spec(6, b), |comm| async move {
                    comm.allgather(comm.rank() * 10, 8).await
                })
                .await;
                for v in outs {
                    assert_eq!(v, vec![0, 10, 20, 30, 40, 50], "{b:?}");
                }
            });
        });
    }

    #[test]
    fn alltoall_transposes() {
        both_backends(|b| {
            run(async move {
                let outs = launch(spec(5, b), |comm| async move {
                    let p = comm.size();
                    let v: Vec<(usize, usize)> = (0..p).map(|dst| (comm.rank(), dst)).collect();
                    comm.alltoall(v, 16).await
                })
                .await;
                for (me, row) in outs.into_iter().enumerate() {
                    for (src, cell) in row.into_iter().enumerate() {
                        assert_eq!(cell, (src, me), "{b:?}");
                    }
                }
            });
        });
    }

    /// Send matrices `m[src][dst]` for the `u64` all-to-all tests: all
    /// zero, one non-zero per row, ~10% random non-zeros, and fully
    /// dense at the top of the `u64` range (`m[0][0] == u64::MAX`).
    fn u64_matrices(p: usize) -> Vec<(&'static str, Vec<Vec<u64>>)> {
        let mut rng = e10_simcore::SimRng::new(0xA11 + p as u64);
        let one = (0..p)
            .map(|src| {
                let mut row = vec![0; p];
                row[(src * 5 + 3) % p] = (src as u64 + 1) << 20;
                row
            })
            .collect();
        let random = (0..p)
            .map(|_| {
                (0..p)
                    .map(|_| match rng.below(10) {
                        0 => 1 + rng.below(1 << 40),
                        _ => 0,
                    })
                    .collect()
            })
            .collect();
        let dense = (0..p)
            .map(|src| {
                (0..p)
                    .map(|dst| u64::MAX - (src * p + dst) as u64)
                    .collect()
            })
            .collect();
        vec![
            ("all-zero", vec![vec![0; p]; p]),
            ("one-per-row", one),
            ("random-10%", random),
            ("dense-max", dense),
        ]
    }

    fn transpose(m: &[Vec<u64>]) -> Vec<Vec<u64>> {
        (0..m.len())
            .map(|dst| m.iter().map(|row| row[dst]).collect())
            .collect()
    }

    /// One `u64` all-to-all of `m` on `p = m.len()` ranks whose entry
    /// times are skewed by rank; returns each rank's received vector
    /// and virtual return time.
    fn u64_alltoall(b: CollBackend, inplace: bool, m: &[Vec<u64>]) -> Vec<(Vec<u64>, SimTime)> {
        let m = Rc::new(m.to_vec());
        run(async move {
            launch(spec(m.len(), b), move |comm| {
                let mut buf = m[comm.rank()].clone();
                async move {
                    let skew = (comm.rank() * 37 % 11) as u64;
                    e10_simcore::sleep(SimDuration::from_micros(skew)).await;
                    if inplace {
                        comm.alltoall_u64_inplace(&mut buf, 8, &mut Vec::new())
                            .await;
                    } else {
                        buf = comm.alltoall(buf, 8).await;
                    }
                    (buf, now())
                }
            })
            .await
        })
    }

    #[test]
    fn sparse_analytic_u64_alltoall_matches_dense_exchange() {
        for p in [1usize, 2, 3, 8, 13, 64] {
            for (name, m) in u64_matrices(p) {
                let want = transpose(&m);
                let analytic = u64_alltoall(CollBackend::Analytic, true, &m);
                let generic = u64_alltoall(CollBackend::Analytic, false, &m);
                let algorithmic = u64_alltoall(CollBackend::Algorithmic, true, &m);
                for r in 0..p {
                    assert_eq!(analytic[r].0, want[r], "p={p} {name} rank {r}: analytic");
                    assert_eq!(generic[r].0, want[r], "p={p} {name} rank {r}: generic");
                    assert_eq!(
                        algorithmic[r].0, want[r],
                        "p={p} {name} rank {r}: algorithmic"
                    );
                    // Same rendezvous, same charged cost: bit-identical
                    // virtual return times.
                    assert_eq!(analytic[r].1, generic[r].1, "p={p} {name} rank {r}: time");
                }
            }
        }
    }

    #[test]
    fn back_to_back_u64_alltoalls_on_skewed_ranks() {
        // Each rank runs every matrix of `u64_matrices` in turn through
        // the same buffer. Most ranks go straight on to the next call;
        // a few are delayed before each one, so fast ranks enter op
        // k+1 while slow ranks are still inside op k.
        const P: usize = 13;
        let ms = Rc::new(u64_matrices(P));
        let rounds = ms.len() * 3;
        both_backends(|b| {
            let ms = Rc::clone(&ms);
            let done = Rc::new(RefCell::new(vec![0usize; P]));
            let overlapped = Rc::new(RefCell::new(false));
            let overlapped2 = Rc::clone(&overlapped);
            run(async move {
                launch(spec(P, b), move |comm| {
                    let (ms, done, overlapped) = (ms.clone(), done.clone(), overlapped2.clone());
                    async move {
                        let me = comm.rank();
                        let mut buf = vec![0u64; P];
                        let mut sreqs = Vec::new();
                        for k in 0..rounds {
                            if me % 4 == 1 {
                                let lag = ((me * 7 + k * 3) % 5) as u64;
                                e10_simcore::sleep(SimDuration::from_micros(lag)).await;
                            }
                            if done.borrow().iter().any(|&d| d < k) {
                                *overlapped.borrow_mut() = true;
                            }
                            let (name, m) = &ms[k % ms.len()];
                            buf.copy_from_slice(&m[me]);
                            comm.alltoall_u64_inplace(&mut buf, 8, &mut sreqs).await;
                            let want: Vec<u64> = m.iter().map(|row| row[me]).collect();
                            assert_eq!(buf, want, "{b:?} call {k} ({name}) rank {me}");
                            done.borrow_mut()[me] = k + 1;
                        }
                    }
                })
                .await;
            });
            assert!(*overlapped.borrow(), "{b:?}: no rank overtook another");
        });
    }

    #[test]
    fn gather_collects_on_root_only() {
        both_backends(|b| {
            run(async move {
                let outs = launch(spec(4, b), |comm| async move {
                    comm.gather(2, comm.rank() as u32, 4).await
                })
                .await;
                assert!(outs[0].is_none());
                assert_eq!(outs[2], Some(vec![0, 1, 2, 3]));
            });
        });
    }

    #[test]
    fn analytic_and_algorithmic_costs_agree_in_magnitude() {
        // The analytic model should land within ~4x of the algorithmic
        // implementation for small control collectives.
        let time = |b: CollBackend| {
            run(async move {
                launch(spec(16, b), |comm| async move {
                    for _ in 0..10 {
                        comm.barrier().await;
                    }
                })
                .await;
                now().as_secs_f64()
            })
        };
        let t_algo = time(CollBackend::Algorithmic);
        let t_ana = time(CollBackend::Analytic);
        let ratio = t_algo / t_ana;
        assert!(
            (0.25..4.0).contains(&ratio),
            "algorithmic {t_algo}s vs analytic {t_ana}s"
        );
    }

    #[test]
    fn single_rank_collectives_are_trivial() {
        both_backends(|b| {
            run(async move {
                launch(spec(1, b), |comm| async move {
                    comm.barrier().await;
                    assert_eq!(comm.bcast(0, Some(5u8), 1).await, 5);
                    assert_eq!(comm.allgather(1u8, 1).await, vec![1]);
                    assert_eq!(comm.allreduce(3u8, 1, |a, b| a + b).await, 3);
                    assert_eq!(comm.alltoall(vec![9u8], 1).await, vec![9]);
                })
                .await;
            });
        });
    }

    #[test]
    fn split_partitions_and_reorders() {
        both_backends(|b| {
            run(async move {
                let outs = launch(spec(8, b), |comm| async move {
                    // Even/odd split, keys reversing the rank order.
                    let color = (comm.rank() % 2) as u32;
                    let key = (100 - comm.rank()) as u64;
                    let sub = comm.split(color, key).await;
                    // Collectives on the sub-communicator work.
                    let members = sub.allgather(comm.rank(), 8).await;
                    (color, sub.rank(), sub.size(), members)
                })
                .await;
                for (r, (color, sub_rank, sub_size, members)) in outs.iter().enumerate() {
                    assert_eq!(*color, (r % 2) as u32, "{b:?}");
                    assert_eq!(*sub_size, 4);
                    // Keys reverse the order: highest old rank first.
                    let expect: Vec<usize> = if *color == 0 {
                        vec![6, 4, 2, 0]
                    } else {
                        vec![7, 5, 3, 1]
                    };
                    assert_eq!(members, &expect, "{b:?}");
                    assert_eq!(members[*sub_rank], r);
                }
            });
        });
    }

    #[test]
    fn split_subcomm_p2p_is_isolated() {
        both_backends(|b| {
            run(async move {
                launch(spec(4, b), |comm| async move {
                    let sub = comm.split((comm.rank() / 2) as u32, 0).await;
                    // Ping within each group using sub-ranks 0 <-> 1.
                    if sub.rank() == 0 {
                        sub.send(1, 3, 64, comm.rank()).await;
                    } else {
                        let from: usize = sub.recv_from(0, 3).await;
                        // Groups are {0,1} and {2,3}: partner differs by 1.
                        assert_eq!(from + 1, comm.rank());
                    }
                })
                .await;
            });
        });
    }

    #[test]
    fn power_of_two_and_odd_sizes() {
        both_backends(|b| {
            for p in [2usize, 3, 4, 8, 13] {
                run(async move {
                    let outs = launch(spec(p, b), |comm| async move {
                        comm.allreduce(comm.rank() as u64 + 1, 8, |a, c| a + c)
                            .await
                    })
                    .await;
                    let expect = (p as u64) * (p as u64 + 1) / 2;
                    assert!(outs.iter().all(|&x| x == expect), "p={p} {b:?}");
                });
            }
        });
    }
}
