//! The main server's *sender* actor: policy-driven site selection, the
//! pending list, and the per-site FIFO queue with its pilot/queue-time model.

use std::collections::VecDeque;

#[cfg(debug_assertions)]
use cgsim_data::DatasetId;
use cgsim_des::{Context, SimTime};
use cgsim_obs::{SpanPhase, TraceCategory};
use cgsim_platform::{NodeId, SiteId};
use cgsim_workload::JobState;

use super::events::GridEvent;
use super::GridModel;

/// Mutable per-site simulation state (the receiver actor).
#[derive(Debug, Clone, Default)]
pub(super) struct SiteState {
    pub(super) available_cores: u64,
    pub(super) queue: VecDeque<usize>,
    pub(super) running: Vec<usize>,
}

impl GridModel {
    /// Refreshes `self.view`, the one reused dynamic grid snapshot handed to
    /// the allocation policy, for job `idx`: O(sites) plain array reads plus
    /// O(replicas of the job's dataset), with no per-site hashing and no
    /// allocation. A site's cache never holds a dataset without a catalog
    /// replica there (every cache insert adds one, and a cache is only
    /// cleared after its site's replicas are evicted), so the catalog alone
    /// decides `has_input_replica`.
    pub(super) fn refresh_view(&mut self, now: SimTime, idx: usize) {
        // Resolved on every refresh: the first call registers the task's
        // dataset, and skipping it would renumber later `DatasetId`s.
        let dataset = self.task_dataset(idx);
        let view = &mut self.view;
        view.now_s = now.as_secs();
        view.pending_jobs = self.pending.len() as u64;
        for (i, (load, state)) in view.sites.iter_mut().zip(&self.sites).enumerate() {
            load.available_cores = state.available_cores;
            load.queued_jobs = state.queue.len() as u64;
            load.running_jobs = state.running.len() as u64;
            load.finished_jobs = self.collector.site_counters(i).finished;
            load.has_input_replica = false;
            load.up = self.availability.site_up(load.site);
            load.active_repairs = self.repair.site_active[i];
        }
        for node in self.catalog.replicas(dataset) {
            if let NodeId::Site(site) = node {
                view.sites[site.index()].has_input_replica = true;
            }
        }
        #[cfg(debug_assertions)]
        self.assert_view_replicas_match_scan(dataset);
    }

    /// Debug-only: the replica-marked `has_input_replica` column must agree
    /// with the per-site scan it replaced (catalog probe or cache probe).
    /// The cache side of the invariant is swept on every data loss
    /// (`assert_caches_hold_catalog_replicas`).
    #[cfg(debug_assertions)]
    fn assert_view_replicas_match_scan(&self, dataset: DatasetId) {
        for (i, load) in self.view.sites.iter().enumerate() {
            let node = NodeId::Site(load.site);
            let scan = self.catalog.has_replica(dataset, node) || self.caches[i].contains(dataset);
            debug_assert_eq!(
                load.has_input_replica, scan,
                "replica column diverged from the scan at {node:?} for {dataset:?}"
            );
        }
    }

    /// Asks the allocation policy for a site; dispatches or parks the job.
    pub(super) fn dispatch(&mut self, idx: usize, ctx: &mut Context<'_, GridEvent>) {
        let now = ctx.now();
        self.refresh_view(now, idx);
        let decision = self.policy.assign_job(&self.jobs[idx].record, &self.view);
        match decision {
            Some(site) if site.index() < self.sites.len() && self.availability.site_up(site) => {
                if let Some(t) = self.tracer.as_mut() {
                    t.emit(
                        now.as_secs(),
                        TraceCategory::Broker,
                        SpanPhase::Instant,
                        "broker.dispatch",
                        Some(self.jobs[idx].record.id.0),
                        Some(&self.platform.site(site).name),
                        None,
                    );
                }
                self.jobs[idx].site = Some(site);
                self.jobs[idx].assign_time = now.as_secs();
                self.jobs[idx].state = JobState::Assigned;
                self.record(now, idx, JobState::Assigned);
                self.sites[site.index()].queue.push_back(idx);
                self.try_start_site(site, ctx);
            }
            decision => {
                // An out-of-range site is a policy bug, not congestion: count
                // it in the grid-level monitoring counters (and warn once) so
                // a buggy plugin cannot masquerade as an overloaded grid. A
                // *down* site is legitimate congestion (the policy may not be
                // availability-aware): the job is parked silently and the
                // pending list drains when the site recovers. Either way the
                // job is parked like any undispatchable job.
                if let Some(bad) = decision {
                    if bad.index() >= self.sites.len() {
                        self.collector.record_invalid_decision();
                        if !self.warned_invalid_policy {
                            self.warned_invalid_policy = true;
                            eprintln!(
                                "warning: allocation policy '{}' returned out-of-range {bad} \
                                 (platform has {} sites); parking the job — see the monitor's \
                                 invalid_policy_decisions counter",
                                self.policy.name(),
                                self.sites.len()
                            );
                        }
                    }
                }
                if let Some(t) = self.tracer.as_mut() {
                    if t.wants(TraceCategory::Broker) {
                        t.emit(
                            now.as_secs(),
                            TraceCategory::Broker,
                            SpanPhase::Instant,
                            "broker.park",
                            Some(self.jobs[idx].record.id.0),
                            None,
                            Some("no dispatchable site".to_string()),
                        );
                    }
                }
                self.jobs[idx].site = None;
                self.jobs[idx].state = JobState::Pending;
                self.record(now, idx, JobState::Pending);
                self.pending.push_back(idx);
            }
        }
    }

    /// Re-examines the pending list (called whenever resources free up).
    pub(super) fn drain_pending(&mut self, ctx: &mut Context<'_, GridEvent>) {
        if self.pending.is_empty() {
            return;
        }
        let waiting: Vec<usize> = self.pending.drain(..).collect();
        for idx in waiting {
            self.dispatch(idx, ctx);
        }
    }

    /// Starts queued jobs at `site` while cores are available (FIFO). Each
    /// picked job first pays the site's scheduling/pilot overhead (the
    /// queue-time model of §4.2) with its cores already reserved, then begins
    /// staging its input.
    pub(super) fn try_start_site(&mut self, site: SiteId, ctx: &mut Context<'_, GridEvent>) {
        if !self.availability.site_up(site) {
            return;
        }
        while let Some(&front) = self.sites[site.index()].queue.front() {
            let needed = self.jobs[front].record.cores as u64;
            if self.sites[site.index()].available_cores < needed {
                break;
            }
            self.sites[site.index()].queue.pop_front();
            self.sites[site.index()].available_cores -= needed;
            self.sites[site.index()].running.push(front);
            self.jobs[front].holds_cores = true;

            // Busy fraction over the cores the site *currently* has (total
            // minus partial node losses).
            let total_cores = self
                .platform
                .site(site)
                .total_cores
                .saturating_sub(self.availability.cores_lost(site))
                .max(1);
            let busy_fraction =
                1.0 - self.sites[site.index()].available_cores as f64 / total_cores as f64;
            let delay = self
                .execution
                .queue_model
                .dispatch_delay(self.sites[site.index()].queue.len() as u64, busy_fraction);
            if delay > 0.0 {
                let key = ctx.schedule_in(SimTime::from_secs(delay), GridEvent::PilotStart(front));
                self.jobs[front].timer = Some(key);
            } else {
                self.start_staging(front, site, ctx);
            }
        }
    }

    /// Called after any resource release: start queued work and reconsider
    /// the pending list (paper §3.2).
    pub(super) fn after_release(&mut self, site: SiteId, ctx: &mut Context<'_, GridEvent>) {
        self.try_start_site(site, ctx);
        self.drain_pending(ctx);
    }
}
