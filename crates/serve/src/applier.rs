//! The applier: the one thread that folds durable windows into the served
//! epoch, strictly in sequence order (`docs/SERVICE.md`, "Application").

use std::sync::Arc;

use graphmine_core::{
    fold_delta, touched_graphs, walk_with_border, Border, Executor, MergeContext,
};
use graphmine_graph::{Change, GraphDb, PatternSet, Support};
use graphmine_telemetry::{Counter, Telemetry};

use crate::engine::{entered, fail_pipeline, EngineShared, ResultEpoch, UpdateSummary};

/// `P(db)` and its border: the merge-join with no piece results, so every
/// child is decided on its exact support and the canonical-code test alone,
/// keeping what it counted and rejected for the next [`fold`].
pub(crate) fn walk(
    db: &GraphDb,
    min_support: Support,
    exec: &Executor,
    tel: &Telemetry,
) -> (PatternSet, Border) {
    walk_with_border(&context(db, min_support, exec, tel))
}

/// The daemon's walks: uncapped, on its pool, into its telemetry.
fn context<'a>(
    db: &'a GraphDb,
    min_support: Support,
    exec: &'a Executor,
    tel: &'a Telemetry,
) -> MergeContext<'a> {
    MergeContext { db, min_support, max_edges: None, executor: exec, telemetry: tel }
}

/// `P(db)` and its border from the served epoch's: the delta walk over the
/// graphs `db` does not share with `old.db`, or, where that needs
/// occurrences outside them, a cold [`walk`].
fn fold(
    shared: &EngineShared,
    old: &ResultEpoch,
    db: &GraphDb,
    border: Border,
) -> (PatternSet, Border) {
    let counters = shared.tel.counters();
    let touched = touched_graphs(&old.db, db);
    counters.add(Counter::FoldGraphsTouched, touched.len() as u64);
    let ctx = context(db, shared.min_support, &shared.exec, &shared.tel);
    match fold_delta(&ctx, &old.db, &touched, &old.patterns, border) {
        Some(folded) => {
            counters.bump(Counter::FoldDelta);
            folded
        }
        None => {
            counters.bump(Counter::FoldCold);
            walk_with_border(&ctx)
        }
    }
}

/// UF/FI/IF of a fold, counted in one merge with the superseded result and
/// tallied into the `inc_*` counters.
fn classify(seq: u64, old: &PatternSet, new: &PatternSet, tel: &Telemetry) -> UpdateSummary {
    let uf = old.changes_to(new).filter(|c| matches!(c, Change::Unchanged(..))).count();
    let fi = old.len() - uf;
    let if_new = new.len() - uf;
    let counters = tel.counters();
    counters.add(Counter::IncUnchangedFrequent, uf as u64);
    counters.add(Counter::IncFrequentToInfrequent, fi as u64);
    counters.add(Counter::IncInfrequentToFrequent, if_new as u64);
    UpdateSummary { seq, uf, fi, if_new, pattern_count: new.len() }
}

/// The applier: folds durable windows into the served epoch strictly in
/// sequence order, one [`ResultEpoch`] swap per window, publishing the
/// database admission built for it. Runs until the engine drops; a
/// journal failure poisons the pipeline. `border` is the served epoch's;
/// the applier alone holds it, and readers never see it.
pub(crate) fn applier_loop(shared: &Arc<EngineShared>, mut border: Border) {
    loop {
        let (seq, db) = {
            let mut q = shared.queue.lock().expect("ingest queue poisoned");
            loop {
                if q.stop {
                    return;
                }
                let next = q.applied_seq + 1;
                if let Some(db) = q.windows.get(&next) {
                    break (next, Arc::clone(db));
                }
                q = shared.submitted.wait(q).expect("ingest queue poisoned");
            }
        };
        // The window must be durable before it becomes visible in an
        // epoch: an acked reader answer must never describe state a
        // crash could lose.
        if let Err(e) = shared.journal.wait_durable(seq) {
            fail_pipeline(shared, format!("journal (seq {seq}): {e}"));
            return;
        }
        // The fold. `old` is the epoch this one supersedes (only this
        // thread writes `current`); it is freed after waiters wake, not
        // under the write lock.
        let old = entered(shared.current.read()).clone();
        let (patterns, next) = fold(shared, &old, &db, border);
        let patterns = Arc::new(patterns);
        border = next;
        let summary = classify(seq, &old.patterns, &patterns, &shared.tel);
        *entered(shared.current.write()) = Arc::new(ResultEpoch { epoch: seq, db, patterns });
        shared.tel.counters().bump(Counter::EpochSwaps);
        // Superseded memo entries are dead weight, but readers that
        // grabbed the previous epoch's `Arc` before this swap are still
        // answering from it — keep exactly one generation of slack (N-1)
        // so those in-flight readers hit their memo instead of
        // re-inserting evicted entries, and evict everything older so a
        // long-running daemon under streaming ingest holds at most two
        // generations at any time.
        entered(shared.support_memo.lock()).retain(|&(epoch, _), _| epoch + 1 >= seq);
        let mut q = shared.queue.lock().expect("ingest queue poisoned");
        q.windows.remove(&seq);
        q.applied_seq = seq;
        q.record_summary(summary);
        // Sliding-window retention: with the newest window now visible,
        // expire windows past the horizon. Each expiry frame is staged like
        // a submitted window and journaled as a tagged frame *before* the
        // tail moves (journal-first, still under the queue lock so its seq
        // slots in order); the frame then rides the normal pipeline —
        // durable before visible. A crash between enqueue and the fsync
        // barrier just loses the frame, and boot re-synthesizes it.
        if let Some(n) = shared.window {
            while q.tracker.as_ref().is_some_and(|tr| tr.live_count() > n) {
                #[cfg(feature = "fault-injection")]
                if graphmine_graph::fault::armed(graphmine_graph::fault::Fault::SkipExpiry) {
                    break;
                }
                let (expired, ops) = q.tracker.as_ref().expect("checked above").synthesize_expiry();
                let eseq = shared.journal.next_seq();
                let frame = q.stage(eseq, &ops, Some(expired)).and_then(|staged| {
                    let enqueued = shared.journal.enqueue_expiry(&staged.ops, expired);
                    enqueued.map(|_| staged).map_err(|e| format!("journal: {e}"))
                });
                match frame {
                    Ok(staged) => q.push(eseq, staged),
                    Err(e) => {
                        drop(q);
                        fail_pipeline(shared, format!("expiry of window {expired}: {e}"));
                        return;
                    }
                }
                shared.tel.counters().bump(Counter::IngestWindowsExpired);
            }
        }
        drop(q);
        shared.applied.notify_all();
    }
}
