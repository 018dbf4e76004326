//! Crash-tolerant collective writes (`e10_coll_timeout > 0`).
//!
//! The stock two-phase engine ([`crate::collective`]) deadlocks if a
//! rank dies mid-collective: every `Alltoall`, shuffle receive and
//! error `Allreduce` waits forever for the dead peer. This module is
//! the ULFM-shaped alternative, dispatched by
//! [`crate::collective::write_at_all`] when the `e10_coll_timeout`
//! hint is non-zero (the default `0` keeps the stock path — and its
//! goldens — bit-identical):
//!
//! 1. **Detection** — every coordination step is a fault-tolerant
//!    gather-and-broadcast ([`e10_mpisim::Comm::ft_coordinate`]) and
//!    every shuffle receive a timed receive; a silent peer is
//!    convicted on the shared failure detector.
//! 2. **Abort discipline** — a conviction never makes a rank skip a
//!    coordination step. The coordinator folds "somebody is missing"
//!    into the step's broadcast result, so *all* survivors abort the
//!    attempt at the same step, or none do.
//! 3. **Shrink and redo** — survivors agree on the live-rank list,
//!    build a survivor communicator ([`e10_mpisim::Comm::shrink`]),
//!    re-elect aggregators among the live nodes (for `node_agg`, node
//!    leaders among the live node members) and redo the write from the
//!    top on the sub-communicator.
//! 4. **Write-epoch fencing** — each redo attempt writes at epoch
//!    `base + attempt` and raises the file's fence to match
//!    ([`e10_pfs::PfsHandle::raise_fence`]), so a straggling write
//!    from the aborted attempt can never clobber redone data. Cache
//!    sync threads are fence-exempt: their bytes were acked with
//!    stable content before any redo began.
//!
//! Idempotence of the redo: survivors' pieces are deterministic
//! functions of `(view, data)`, so redone rounds rewrite identical
//! bytes; dead ranks' pieces simply drop out (they were never acked);
//! MPI consistency semantics make concurrent writers disjoint, so the
//! partial writes of an aborted attempt can only occupy byte ranges
//! the redo rewrites identically or ranges owned by dead ranks.
//!
//! Every receive on this path is bounded (timed receive or
//! coordinated with failover), sends complete on arrival regardless
//! of receiver liveness, and the live set shrinks by at least one
//! rank per aborted attempt — so the collective terminates in at most
//! `size` attempts.

use std::rc::Rc;

use e10_mpisim::{Comm, FileView, Request, SourceSel, Tag};
use e10_simcore::trace::counter;
use e10_simcore::SimDuration;
use e10_storesim::Payload;

use crate::adio::{AdioFile, DataSpec};
use crate::collective::{compute_domains, Provenance, WriteAllResult, DATA_TAG_BASE};
use crate::fd::select_aggregators_capped;
use crate::hints::{CbMode, TwoPhaseAlgo};
use crate::node_agg::{stage_into_cache, MergedNode};
use crate::profile::Phase;

/// Tag space of the fault-tolerant coordination steps (disjoint from
/// the shuffle's `DATA_TAG_BASE`, the node-agg gather's
/// `NODE_GATHER_TAG` and the `COLL_TAG_BASE` of the stock collectives).
const FT_TAG_BASE: Tag = 0x5000_0000;

/// Coordination steps one redo attempt may use: the live-list sync,
/// the offset exchange, the node-agg pre-phase sync and two steps per
/// two-phase round.
const FT_STEPS_PER_ATTEMPT: u32 = 4096;

/// First tag of coordination step `seq` of redo attempt `attempt` on a
/// `size`-rank communicator. Each step gets `2 * size` tags, two per
/// coordinator-failover candidate ([`Comm::ft_coordinate`]), so
/// failover can run through every rank without reaching the next
/// step's block. Blocks wrap round once `FT_TAG_BASE..NODE_GATHER_TAG`
/// is used up.
fn ft_tag(size: usize, attempt: u32, seq: u32) -> Tag {
    debug_assert!(
        seq < FT_STEPS_PER_ATTEMPT,
        "coordination step {seq} overruns attempt {attempt}'s tag budget"
    );
    let stride = 2 * size as u64;
    let blocks = u64::from(NODE_GATHER_TAG - FT_TAG_BASE) / stride;
    let block = (u64::from(attempt) * u64::from(FT_STEPS_PER_ATTEMPT) + u64::from(seq)) % blocks;
    let base = u64::from(FT_TAG_BASE) + block * stride;
    debug_assert!(base + stride <= u64::from(NODE_GATHER_TAG));
    base as Tag
}

/// An attempt aborted: at least one rank was convicted; retry on the
/// shrunken communicator.
struct Aborted;

/// `MPI_File_write_all` with mid-collective crash tolerance. Same
/// result contract as the stock path; ranks that die mid-collective
/// simply never return (their bytes were never acked).
pub async fn write_at_all_tolerant(
    fd: &AdioFile,
    view: &FileView,
    data: &DataSpec,
) -> WriteAllResult {
    let timeout = SimDuration::from_millis(fd.hints().e10_coll_timeout);
    let me = fd.comm.rank();
    let p = fd.comm.size();
    let base_epoch = fd.global().epoch();
    let mut attempt: u32 = 0;
    loop {
        counter("coll.ft.attempts", 1);
        // Settle the live list: the coordinator's snapshot, not a local
        // read, so every survivor shrinks to exactly the same list.
        let live: Rc<Vec<usize>> = fd
            .comm
            .ft_coordinate(ft_tag(p, attempt, 0), (), 16, timeout, |contribs| {
                contribs
                    .iter()
                    .enumerate()
                    .filter_map(|(r, c)| c.map(|()| r))
                    .collect()
            })
            .await;
        if !live.contains(&me) {
            // Spuriously convicted (a live rank whose messages missed
            // the detection window). The group proceeds without us;
            // surface a local failure instead of corrupting the redo.
            counter("coll.ft.self_evicted", 1);
            return WriteAllResult {
                bytes: view.total_bytes(),
                rounds: 0,
                used_collective: true,
                error_code: 1,
            };
        }
        let sub = fd.comm.shrink(&live);
        // Re-elect aggregators among the live nodes (sub numbering),
        // with the same placement policy the open used.
        let node_map = sub.node_map();
        let nnodes = node_map.iter().copied().max().map(|m| m + 1).unwrap_or(1);
        let aggregators = select_aggregators_capped(
            &node_map,
            fd.hints().cb_nodes.unwrap_or(nnodes),
            fd.hints().cb_config_max_per_node.unwrap_or(usize::MAX),
        );
        let sfd = fd.with_comm(sub.clone(), aggregators);
        let epoch = base_epoch + u64::from(attempt);
        if attempt > 0 {
            counter("coll.ft.redo_attempts", 1);
            // Fence out stragglers from the aborted attempt before any
            // redone write can land.
            sfd.global().set_epoch(epoch);
            sfd.global().raise_fence(epoch);
        }
        let outcome = attempt_write(&sfd, view, data, timeout, attempt).await;
        // Either way, share what this attempt learned with the parent
        // communicator (idempotent; the sub-comm failure set is shared
        // state, so all survivors propagate the same convictions).
        for j in sub.failed_ranks() {
            fd.comm.mark_failed(live[j]);
        }
        match outcome {
            Ok(res) => {
                // Later operations on this handle must write at (or
                // above) the fence the redo raised.
                fd.global().set_epoch(epoch);
                return res;
            }
            Err(Aborted) => {
                counter("coll.ft.aborted_attempts", 1);
                attempt += 1;
                assert!(
                    (attempt as usize) <= p + 1,
                    "tolerant collective failed to converge: the live set \
                     must shrink on every aborted attempt"
                );
            }
        }
    }
}

/// One attempt on the survivor communicator: the full two-phase write
/// with every coordination step fault-tolerant. `Err(Aborted)` means a
/// conviction happened and *every* survivor of this attempt returned
/// `Err(Aborted)` at the same step.
async fn attempt_write(
    fd: &AdioFile,
    view: &FileView,
    data: &DataSpec,
    timeout: SimDuration,
    attempt: u32,
) -> Result<WriteAllResult, Aborted> {
    let comm = fd.comm.clone();
    let prof = fd.profiler().clone();
    let me = comm.rank();
    let my_node = comm.node();
    let p = comm.size();
    let my_bytes = view.total_bytes();
    let mut seq: u32 = 1; // step 0 is the live-list sync

    // --- offset exchange (fault-tolerant allgather) ---------------------
    let (my_st, my_end) = if my_bytes == 0 {
        (u64::MAX, 0)
    } else {
        view.file_range()
    };
    let st_end: Rc<Option<Vec<(u64, u64)>>> = {
        let _t = prof.enter(Phase::OffsetExchange);
        comm.ft_coordinate(
            ft_tag(p, attempt, seq),
            (my_st, my_end),
            16,
            timeout,
            |contribs| {
                contribs
                    .iter()
                    .map(|c| c.as_ref().copied())
                    .collect::<Option<Vec<_>>>()
            },
        )
        .await
    };
    seq += 1;
    let Some(st_end) = st_end.as_ref() else {
        return Err(Aborted);
    };
    let min_st = st_end.iter().filter(|e| e.0 != u64::MAX).map(|e| e.0).min();
    let Some(min_st) = min_st else {
        return Ok(WriteAllResult {
            bytes: 0,
            rounds: 0,
            used_collective: false,
            error_code: 0,
        });
    };
    let max_end = st_end.iter().map(|e| e.1).max().unwrap_or(0);

    // --- collective-vs-independent decision (identical inputs on every
    // survivor → identical decision) -------------------------------------
    let mut interleaved = false;
    let mut running_end = 0u64;
    for &(st, end) in st_end {
        if st == u64::MAX {
            continue;
        }
        if st < running_end {
            interleaved = true;
        }
        running_end = running_end.max(end);
    }
    let use_coll = match fd.hints().cb_write {
        CbMode::Enable => true,
        CbMode::Disable => false,
        CbMode::Automatic => interleaved,
    };
    if !use_coll {
        // Independent strided writes involve no peer communication, so
        // they cannot be stalled by later deaths.
        let (bytes, error_code) = crate::sieve::write_strided(fd, view, data).await;
        return Ok(WriteAllResult {
            bytes,
            rounds: 0,
            used_collective: false,
            error_code,
        });
    }

    // --- node-agg pre-phase (tolerant gather to the live node leader) ---
    let algo = fd.hints().two_phase;
    let mut pre_abort = false;
    let merged: Option<MergedNode> = if algo == TwoPhaseAlgo::NodeAgg {
        let _t = prof.enter(Phase::NodeAggGather);
        let members: Vec<usize> = (0..p).filter(|&r| comm.node_of(r) == my_node).collect();
        // Leader = lowest live node member. The node communicator is
        // carved out of the *survivor* communicator, so a dead leader
        // from a previous attempt is already gone.
        let node_comm = comm.shrink(&members);
        let m = gather_node_tolerant(&comm, &node_comm, &members, view, data, timeout).await;
        match m {
            Ok(Some(m)) => {
                stage_into_cache(fd, &m).await;
                Some(m)
            }
            Ok(None) => None,
            Err(Aborted) => {
                pre_abort = true;
                None
            }
        }
    } else {
        None
    };
    if algo == TwoPhaseAlgo::NodeAgg {
        // Pre-phase sync: only the leaders can observe a dead member,
        // so fold their abort flags into one broadcast decision.
        let ok: Rc<Option<()>> = comm
            .ft_coordinate(
                ft_tag(p, attempt, seq),
                u64::from(pre_abort),
                16,
                timeout,
                |contribs| contribs.iter().all(|c| matches!(c, Some(0))).then_some(()),
            )
            .await;
        seq += 1;
        if ok.is_none() {
            return Err(Aborted);
        }
    }

    // --- the two-phase rounds --------------------------------------------
    let (fds, cb, ntimes) = compute_domains(fd, min_st, max_end, algo);
    let aggregators: Vec<usize> = fd.aggregators().to_vec();
    let naggs = aggregators.len();
    let my_agg = fd.my_agg_index();
    let net = comm.network();
    let mut global_err: u32 = 0;

    let mut origins_scratch: Vec<usize> = Vec::new();
    let mut row = vec![0u64; p];
    let mut windows: Vec<(u64, u64)> = Vec::with_capacity(naggs);
    let mut agg_bufs: Vec<Vec<(u64, Payload)>> = (0..naggs).map(|_| Vec::new()).collect();
    let mut provenance: Vec<Provenance> = vec![Provenance::default(); naggs];
    let mut sreqs: Vec<Request> = Vec::new();
    let mut recvd: Vec<(u64, Payload)> = Vec::new();
    let mut order: Vec<(u64, u32)> = Vec::new();
    let mut sorted: Vec<(u64, Payload)> = Vec::new();

    for round in 0..ntimes {
        let tag = DATA_TAG_BASE + (round % 4096) as Tag;
        windows.clear();
        windows.extend((0..naggs).map(|a| {
            let ws = (fds.starts[a] + round * cb).min(fds.ends[a]);
            let we = (fds.starts[a] + (round + 1) * cb).min(fds.ends[a]);
            (ws, we)
        }));

        row.fill(0);
        for (a, &(ws, we)) in windows.iter().enumerate() {
            agg_bufs[a].clear();
            provenance[a] = match &merged {
                Some(m) => m.window_into(ws, we, &mut agg_bufs[a], &mut origins_scratch),
                None if algo == TwoPhaseAlgo::NodeAgg => Provenance::default(),
                None => {
                    if my_bytes == 0 {
                        Provenance::default()
                    } else {
                        view.for_each_piece_in_window(ws, we, |vp| {
                            agg_bufs[a]
                                .push((vp.file_off, data.piece(vp.buf_off, vp.file_off, vp.len)));
                        });
                        Provenance::plain(agg_bufs[a].len() as u64)
                    }
                }
            };
            row[aggregators[a]] = agg_bufs[a].iter().map(|(_, p)| p.len).sum();
        }

        // Size dissemination: a fault-tolerant alltoall — the
        // coordinator assembles the full size matrix once and shares it
        // (or the abort decision) with every survivor.
        let matrix: Rc<Option<Vec<Vec<u64>>>> = {
            let _t = prof.enter(Phase::ShuffleAlltoall);
            comm.ft_coordinate(
                ft_tag(p, attempt, seq),
                row.clone(),
                8 * p as u64,
                timeout,
                |contribs| {
                    contribs
                        .iter_mut()
                        .map(std::option::Option::take)
                        .collect::<Option<Vec<_>>>()
                },
            )
            .await
        };
        seq += 1;
        let Some(matrix) = matrix.as_ref() else {
            return Err(Aborted);
        };

        // Data shuffle. Sends complete on arrival whatever the
        // receiver's fate; receives are timed, and a silent sender is
        // convicted without skipping the round's coordination.
        let mut local_abort = false;
        recvd.clear();
        for (a, c) in agg_bufs.iter_mut().enumerate() {
            if c.is_empty() {
                continue;
            }
            let dst = aggregators[a];
            if dst == me {
                recvd.append(c);
            } else {
                let npieces = c.len() as u64;
                let bytes: u64 = c.iter().map(|(_, p)| p.len).sum::<u64>() + 32 + 16 * npieces;
                counter("coll.shuffle.msgs", 1);
                counter("coll.shuffle.bytes", bytes);
                if comm.node_of(dst) != my_node {
                    counter("coll.shuffle.remote_msgs", 1);
                    counter("coll.shuffle.remote_bytes", bytes);
                    let saved = 32 * provenance[a].msgs.saturating_sub(1)
                        + 16 * provenance[a].pieces.saturating_sub(npieces);
                    if saved > 0 {
                        counter("coll.node_agg.shuffle_bytes_saved", saved);
                    }
                }
                let mut payload = comm.send_buf::<(u64, Payload)>();
                payload.append(c);
                sreqs.push(comm.isend(dst, tag, bytes, payload));
            }
        }
        {
            let _t = prof.enter(Phase::ShuffleWaitall);
            if my_agg.is_some() {
                for (src, sizes) in matrix.iter().enumerate() {
                    if src == me || sizes[me] == 0 {
                        continue;
                    }
                    match comm.recv_timeout(SourceSel::Rank(src), tag, timeout).await {
                        Some(m) => {
                            let mut v = m.into_data::<Vec<(u64, Payload)>>();
                            recvd.append(&mut v);
                            comm.recycle_buf(v);
                        }
                        None => {
                            comm.mark_failed(src);
                            local_abort = true;
                        }
                    }
                }
            }
            for r in sreqs.drain(..) {
                r.wait().await;
            }
        }

        // Collective-buffer assembly + write — skipped when this
        // round is already doomed (the redo rewrites the window).
        let mut local_err: u32 = 0;
        if !local_abort && my_agg.is_some() && !recvd.is_empty() {
            let total: u64 = recvd.iter().map(|(_, p)| p.len).sum();
            {
                let _t = prof.enter(Phase::CollBufAssembly);
                net.local_copy(comm.node(), total).await;
            }
            order.clear();
            order.extend(
                recvd
                    .iter()
                    .enumerate()
                    .map(|(i, &(off, _))| (off, i as u32)),
            );
            order.sort_unstable();
            sorted.clear();
            sorted.extend(
                order.iter().map(|&(_, i)| {
                    std::mem::replace(&mut recvd[i as usize], (0, Payload::zero(0)))
                }),
            );
            let mut holes = false;
            let mut run_end = 0u64;
            for (i, &(off, ref pl)) in sorted.iter().enumerate() {
                if i > 0 && off > run_end {
                    holes = true;
                }
                run_end = run_end.max(off + pl.len);
            }
            if holes && !fd.cache_active() {
                let span_start = sorted.first().unwrap().0;
                let span_end = run_end;
                {
                    let _t = prof.enter(Phase::Write);
                    if let Err(e) = fd
                        .global()
                        .read(comm.node(), span_start, span_end - span_start)
                        .await
                    {
                        local_err = 1;
                        fd.record_io_error(e.into());
                    }
                }
                if let Err(e) = fd
                    .write_span(
                        span_start,
                        span_end - span_start,
                        std::mem::take(&mut sorted),
                    )
                    .await
                {
                    local_err = 1;
                    fd.record_io_error(e);
                }
            } else {
                let mut it = sorted.drain(..);
                if let Some((mut coff, mut cp)) = it.next() {
                    for (off, pl) in it {
                        if coff + cp.len == off && cp.src.continues(cp.len, &pl.src) {
                            cp.len += pl.len;
                        } else {
                            if let Err(e) = fd.write_contig(coff, cp).await {
                                local_err = 1;
                                fd.record_io_error(e);
                            }
                            coff = off;
                            cp = pl;
                        }
                    }
                    if let Err(e) = fd.write_contig(coff, cp).await {
                        local_err = 1;
                        fd.record_io_error(e);
                    }
                }
            }
        }

        // Round status: OR of (abort, error) bits, with the usual
        // missing-contributor abort. This replaces the stock engine's
        // single final allreduce — each round's fate is settled before
        // the next round's shuffle.
        let flag = u64::from(local_abort) | (u64::from(local_err) << 1);
        let status: Rc<Option<u64>> = {
            let _t = prof.enter(Phase::PostWrite);
            comm.ft_coordinate(ft_tag(p, attempt, seq), flag, 16, timeout, |contribs| {
                let mut or = 0u64;
                for c in contribs.iter() {
                    or |= (*c)?;
                }
                Some(or)
            })
            .await
        };
        seq += 1;
        match *status {
            None => return Err(Aborted),
            Some(f) if f & 1 != 0 => return Err(Aborted),
            Some(f) => global_err |= (f >> 1) as u32 & 1,
        }
    }

    Ok(WriteAllResult {
        bytes: my_bytes,
        rounds: ntimes,
        used_collective: true,
        error_code: global_err,
    })
}

/// Tag of the tolerant intra-node gather (its communicator is carved
/// fresh from each attempt's survivor communicator, so no stale
/// messages can cross attempts).
const NODE_GATHER_TAG: Tag = 0x6100_0000;

/// The node-agg pre-phase over the live node members: gather every
/// member's piece list to the node leader with timed receives. Returns
/// the merged request list on the leader, `Ok(None)` on members, and
/// `Err(Aborted)` if a member died mid-gather (the leader convicts it
/// on the survivor communicator; the caller's pre-phase sync spreads
/// the abort).
async fn gather_node_tolerant(
    comm: &Comm,
    node_comm: &Comm,
    members: &[usize],
    view: &FileView,
    data: &DataSpec,
    timeout: SimDuration,
) -> Result<Option<MergedNode>, Aborted> {
    let mine: Vec<(u64, Payload)> = view
        .pieces()
        .iter()
        .map(|vp| (vp.file_off, data.piece(vp.buf_off, vp.file_off, vp.len)))
        .collect();
    if node_comm.rank() != 0 {
        let bytes: u64 = mine.iter().map(|(_, p)| p.len).sum::<u64>() + 32 + 16 * mine.len() as u64;
        drop(node_comm.isend(0, NODE_GATHER_TAG, bytes, mine));
        return Ok(None);
    }
    let mut aborted = false;
    let mut raw: Vec<(u64, u64, usize)> =
        mine.iter().map(|&(off, ref p)| (off, p.len, 0)).collect();
    let mut pieces = mine;
    // `src` is both the node-comm recv source and the index into
    // `members` for conviction; enumerate() would hide that pairing.
    #[allow(clippy::needless_range_loop)]
    for src in 1..node_comm.size() {
        match node_comm
            .recv_timeout(SourceSel::Rank(src), NODE_GATHER_TAG, timeout)
            .await
        {
            Some(m) => {
                for (off, p) in m.into_data::<Vec<(u64, Payload)>>() {
                    raw.push((off, p.len, src));
                    pieces.push((off, p));
                }
            }
            None => {
                comm.mark_failed(members[src]);
                aborted = true;
            }
        }
    }
    if aborted {
        return Err(Aborted);
    }
    raw.sort_by_key(|&(off, _, _)| off);
    pieces.sort_by_key(|&(off, _)| off);
    let raw_count = pieces.len() as u64;
    let merged = crate::collective::merge_continuing(pieces);
    counter("coll.node_agg.merged_reqs", raw_count - merged.len() as u64);
    Ok(Some(MergedNode::new(merged, raw)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::write_at_all;
    use crate::testbed::TestbedSpec;
    use e10_mpisim::{FlatType, Info};
    use e10_simcore::{kill_group, new_group, run, sleep, spawn, spawn_in_group, Flag};
    use std::cell::Cell;
    use std::rc::Rc;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn strided_view(rank: usize, p: usize, block: u64, count: u64) -> FileView {
        let blocks: Vec<(u64, u64)> = (0..count)
            .map(|i| ((i * p as u64 + rank as u64) * block, block))
            .collect();
        FileView::new(&FlatType::indexed(blocks), 0)
    }

    fn ft_info(extra: &[(&str, &str)]) -> Info {
        let i = Info::new();
        i.set("romio_cb_write", "enable");
        i.set("cb_buffer_size", "65536");
        i.set("e10_coll_timeout", "40");
        for (k, v) in extra {
            i.set(k, v);
        }
        i
    }

    /// Run an 8-rank / 4-node collective write where `victims` are
    /// killed `kill_after` after every rank has opened the file.
    /// Survivors must complete and their own bytes must verify; a
    /// second post-crash collective must also work (the raised fence
    /// must not swallow later writes).
    fn crash_scenario(
        victims: &'static [usize],
        kill_after: SimDuration,
        extra: &'static [(&str, &str)],
    ) {
        run(async move {
            let tb = TestbedSpec::small(8, 4).build();
            let crash_gid = new_group();
            let opened = Rc::new(Cell::new(0usize));
            let all_open = Flag::new();
            let survivors: Vec<_> = tb
                .ctxs()
                .into_iter()
                .filter_map(|ctx| {
                    let rank = ctx.comm.rank();
                    let opened = Rc::clone(&opened);
                    let all_open = all_open.clone();
                    let fut = async move {
                        let f = crate::adio::AdioFile::open(
                            &ctx,
                            "/gfs/ftcrash",
                            &ft_info(extra),
                            true,
                        )
                        .await
                        .unwrap();
                        opened.set(opened.get() + 1);
                        if opened.get() == 8 {
                            all_open.set();
                        }
                        let view = strided_view(rank, 8, 10_000, 16);
                        let res = write_at_all(&f, &view, &DataSpec::FileGen { seed: 31 }).await;
                        assert_eq!(res.error_code, 0, "rank {rank}: first write failed");
                        f.file_sync().await;
                        // The raised fence must not affect post-redo
                        // collectives on the same handle.
                        let shifted = FileView::new(
                            &FlatType::indexed(
                                (0..4u64)
                                    .map(|i| (2_000_000 + (i * 8 + rank as u64) * 1_000, 1_000))
                                    .collect(),
                            ),
                            0,
                        );
                        let res2 =
                            write_at_all(&f, &shifted, &DataSpec::FileGen { seed: 32 }).await;
                        assert_eq!(res2.error_code, 0, "rank {rank}: post-crash write failed");
                        f.file_sync().await;
                        (rank, f)
                    };
                    if victims.contains(&rank) {
                        // Killed tasks' handles never complete: fire and
                        // forget.
                        drop(spawn_in_group(crash_gid, fut));
                        None
                    } else {
                        Some(spawn(fut))
                    }
                })
                .collect();
            spawn(async move {
                all_open.wait().await;
                sleep(kill_after).await;
                kill_group(crash_gid);
            });
            // Verify only after EVERY survivor has flushed: with a
            // cache, an aggregator's flush covers other ranks' bytes.
            let outs = e10_simcore::join_all(survivors).await;
            let ext = outs[0].1.global().extents();
            for &(rank, _) in &outs {
                // Oracle: every byte a surviving rank was acked for
                // reads back.
                for i in 0..16u64 {
                    let off = (i * 8 + rank as u64) * 10_000;
                    ext.verify_gen(31, off, 10_000)
                        .unwrap_or_else(|e| panic!("rank {rank} block {i}: {e:?}"));
                }
                for i in 0..4u64 {
                    let off = 2_000_000 + (i * 8 + rank as u64) * 1_000;
                    ext.verify_gen(32, off, 1_000)
                        .unwrap_or_else(|e| panic!("rank {rank} post block {i}: {e:?}"));
                }
            }
        });
    }

    #[test]
    fn ft_tag_blocks_hold_every_failover_candidate() {
        for size in [256usize, 512] {
            let span = 2 * size as u64;
            let last_attempt = size as u32 + 1;
            let mut steps: Vec<(u32, u32)> = Vec::new();
            for attempt in [0, 1, last_attempt] {
                steps.extend([0, 1, 2, 200, FT_STEPS_PER_ATTEMPT - 1].map(|seq| (attempt, seq)));
            }
            for (attempt, seq) in steps {
                let lo = u64::from(ft_tag(size, attempt, seq));
                // The last failover candidate's result tag.
                let hi = lo + span - 1;
                assert!(lo >= u64::from(FT_TAG_BASE) && hi < u64::from(NODE_GATHER_TAG));
                let next = if seq + 1 < FT_STEPS_PER_ATTEMPT {
                    ft_tag(size, attempt, seq + 1)
                } else {
                    ft_tag(size, attempt + 1, 0)
                };
                let next = u64::from(next);
                assert!(
                    next > hi || next + span <= lo,
                    "size {size}: step ({attempt}, {seq}) spans {lo:#x}..={hi:#x}, \
                     its successor starts at {next:#x}"
                );
            }
        }
    }

    #[test]
    fn tolerant_write_without_failures_is_correct() {
        run(async {
            let tb = TestbedSpec::small(8, 4).build();
            let handles: Vec<_> = tb
                .ctxs()
                .into_iter()
                .map(|ctx| {
                    spawn(async move {
                        let f = crate::adio::AdioFile::open(&ctx, "/gfs/ftok", &ft_info(&[]), true)
                            .await
                            .unwrap();
                        let view = strided_view(ctx.comm.rank(), 8, 10_000, 16);
                        let res = write_at_all(&f, &view, &DataSpec::FileGen { seed: 30 }).await;
                        assert!(res.used_collective);
                        assert_eq!(res.error_code, 0);
                        assert_eq!(res.bytes, 160_000);
                        f.close().await;
                        if ctx.comm.rank() == 0 {
                            f.global()
                                .extents()
                                .verify_gen(30, 0, 8 * 16 * 10_000)
                                .unwrap();
                        }
                    })
                })
                .collect();
            e10_simcore::join_all(handles).await;
        });
    }

    #[test]
    fn mid_collective_crash_survivors_complete_and_verify() {
        // Node 1 (ranks 2, 3) dies shortly into the write.
        crash_scenario(&[2, 3], ms(3), &[]);
    }

    #[test]
    fn aggregator_and_coordinator_death_fails_over() {
        // Rank 0 is both an aggregator and the lowest rank (the
        // ft-coordination default coordinator); rank 1 shares its node.
        crash_scenario(&[0, 1], ms(3), &[]);
    }

    #[test]
    fn node_agg_leader_death_reelects_and_completes() {
        // Rank 2 is node 1's leader under node_agg; its partner rank 3
        // survives and must be re-led.
        crash_scenario(&[2], ms(3), &[("e10_two_phase", "node_agg")]);
    }

    #[test]
    fn mid_collective_crash_with_cache_survives() {
        crash_scenario(
            &[4, 5],
            ms(3),
            &[
                ("e10_cache", "enable"),
                ("e10_cache_flush_flag", "flush_immediate"),
                ("e10_cache_discard_flag", "enable"),
            ],
        );
    }

    #[test]
    fn tolerant_node_agg_without_failures_matches_plain_bytes() {
        run(async {
            let tb = TestbedSpec::small(8, 2).build();
            let handles: Vec<_> = tb
                .ctxs()
                .into_iter()
                .map(|ctx| {
                    spawn(async move {
                        let info = ft_info(&[("e10_two_phase", "node_agg")]);
                        let f = crate::adio::AdioFile::open(&ctx, "/gfs/ftna", &info, true)
                            .await
                            .unwrap();
                        let view = strided_view(ctx.comm.rank(), 8, 7_000, 8);
                        let res = write_at_all(&f, &view, &DataSpec::FileGen { seed: 33 }).await;
                        assert_eq!(res.error_code, 0);
                        f.close().await;
                        if ctx.comm.rank() == 0 {
                            f.global()
                                .extents()
                                .verify_gen(33, 0, 8 * 8 * 7_000)
                                .unwrap();
                        }
                    })
                })
                .collect();
            e10_simcore::join_all(handles).await;
        });
    }
}
