//! The backfill passes the shipped ones are checked against: EASY's shadow
//! time from a per-pass collect-and-sort of the running jobs' releases, then
//! every queued job behind the head in FIFO order, each tested by the
//! literal width/shadow/`extra` rule against the free count it meets (not
//! by the queue's own backfill lookup, which this checks), and
//! conservative backfilling that rebuilds a `BTreeMap` profile from
//! `running` on every pass, refits every queued job with the per-candidate
//! `earliest_fit_naive`, and starts over from the queue head after *every*
//! start. It reads nothing the shipped passes rely on — not the order of
//! `running`, not its node counts — and reserves every queued job, so
//! agreement on outcomes and traces (`tests::backfill_reference`) is
//! evidence that neither the sorted release list, nor asking the queue
//! only for startable jobs, nor continuing after a start, nor stopping
//! where no queued job can start now changed a decision.
//! Selected by [`Engine::with_reference_passes`].

use super::*;
use std::collections::BTreeMap;
use std::ops::Bound;

impl Run<'_, '_> {
    pub(super) fn easy_backfill_reference(
        &mut self,
        head_slot: usize,
        head: usize,
    ) -> Result<(), EngineError> {
        let log = self.log;
        let need = log.jobs[head].nodes;
        let mut ends: Vec<(u64, usize)> = self
            .running
            .iter()
            .map(|&(wall_end, _, i, _)| (wall_end, log.jobs[i].nodes))
            .collect();
        ends.sort_unstable();
        let mut avail = self.state.free_total();
        let mut shadow = u64::MAX;
        for &(t, n) in &ends {
            avail += n;
            if avail >= need {
                shadow = t;
                break;
            }
        }
        let extra = avail.saturating_sub(need);

        let mut next = self.pending.after(head_slot);
        while let Some((slot, i)) = next {
            next = self.pending.after(slot);
            let job = &log.jobs[i];
            if job.nodes <= self.state.free_total()
                && (self.now.saturating_add(job.walltime) <= shadow || job.nodes <= extra)
            {
                self.start_job(slot, i, true)?;
            }
        }
        Ok(())
    }

    pub(super) fn conservative_backfill_reference(&mut self) -> Result<(), EngineError> {
        let (log, now) = (self.log, self.now);
        'restart: loop {
            let mut deltas: BTreeMap<u64, i64> = BTreeMap::new();
            for &(wall_end, _, i, _) in &self.running {
                *deltas.entry(wall_end.max(now)).or_insert(0) += i64_of_usize(log.jobs[i].nodes);
            }
            let base = i64_of_usize(self.state.free_total());

            let head = self.pending.first();
            let mut next = head;
            while let Some((slot, i)) = next {
                next = self.pending.after(slot);
                let job = &log.jobs[i];
                let need = i64_of_usize(job.nodes);
                let dur = job.walltime.max(1);
                self.eng.fits.set(self.eng.fits.get() + 1);
                let Some(s) = earliest_fit_naive(&deltas, base, now, dur, need) else {
                    continue;
                };
                if s == now
                    && need <= i64_of_usize(self.state.free_total())
                    && self.start_job(slot, i, Some((slot, i)) != head)?.is_some()
                {
                    continue 'restart;
                }
                *deltas.entry(s).or_insert(0) -= need;
                *deltas.entry(s.saturating_add(dur)).or_insert(0) += need;
            }
            return Ok(());
        }
    }
}

/// The reservation search as it was before the sweep: every candidate
/// start, in ascending order, re-scans its own window. The availability at
/// each candidate is carried from the last, not re-summed: re-summing made
/// a refit of a queue 300 deep quadratic in its breakpoints.
pub(crate) fn earliest_fit_naive(
    deltas: &BTreeMap<u64, i64>,
    base: i64,
    now: u64,
    dur: u64,
    need: i64,
) -> Option<u64> {
    let after = |t: u64| deltas.range((Bound::Excluded(t), Bound::Unbounded));
    let mut at = base + deltas.range(..=now).map(|(_, d)| *d).sum::<i64>();
    let candidates = std::iter::once((now, 0)).chain(after(now).map(|(&k, &d)| (k, d)));
    for (s, d) in candidates {
        at += d;
        let mut avail = at;
        if avail < need {
            continue;
        }
        let end = s.saturating_add(dur);
        let mut ok = true;
        for (_, d) in after(s).take_while(|(k, _)| **k < end) {
            avail += d;
            if avail < need {
                ok = false;
                break;
            }
        }
        if ok {
            return Some(s);
        }
    }
    None
}
