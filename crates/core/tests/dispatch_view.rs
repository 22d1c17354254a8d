//! The broker's dispatch snapshot as a plugin sees it: a recording
//! allocation policy wraps `DataAwarePolicy` and keeps every `GridView` it is
//! handed. The snapshot is one buffer refreshed in place per call, so these
//! tests pin that each call still sees the current grid — replicas created
//! by earlier jobs of a task, replicas destroyed by a disk loss — and one
//! entry per site.

use std::sync::{Arc, Mutex};

use cgsim_core::{ExecutionConfig, Simulation};
use cgsim_faults::{FaultAction, FaultEvent, FaultPlan};
use cgsim_platform::spec::MAIN_SERVER;
use cgsim_platform::{LinkSpec, PlatformSpec, SiteId, SiteSpec, Tier};
use cgsim_policies::{AllocationPolicy, DataAwarePolicy, GridView};
use cgsim_workload::{JobKind, JobRecord, JobState, TaskId, Trace};

/// What the policy was shown at one hook call.
#[derive(Debug, Clone)]
struct Seen {
    job: u64,
    now_s: f64,
    /// `None` for `assign_job`; the completion site for `on_job_completed`.
    completed_at: Option<SiteId>,
    view: GridView,
}

struct Recording {
    inner: DataAwarePolicy,
    log: Arc<Mutex<Vec<Seen>>>,
}

impl AllocationPolicy for Recording {
    fn name(&self) -> &str {
        "recording-data-aware"
    }

    fn assign_job(&mut self, job: &JobRecord, view: &GridView) -> Option<SiteId> {
        self.log.lock().unwrap().push(Seen {
            job: job.id.0,
            now_s: view.now_s,
            completed_at: None,
            view: view.clone(),
        });
        self.inner.assign_job(job, view)
    }

    fn on_job_completed(&mut self, job: &JobRecord, site: SiteId, view: &GridView) {
        self.log.lock().unwrap().push(Seen {
            job: job.id.0,
            now_s: view.now_s,
            completed_at: Some(site),
            view: view.clone(),
        });
    }
}

/// Three sites; "Big" dominates, so the data-blind fallback (least-loaded)
/// places every job there.
fn platform() -> PlatformSpec {
    PlatformSpec::new("view")
        .with_site(SiteSpec::uniform("Big", Tier::Tier1, 2_000, 10.0))
        .with_site(SiteSpec::uniform("Mid", Tier::Tier2, 400, 10.0))
        .with_site(SiteSpec::uniform("Small", Tier::Tier2, 200, 10.0))
        .with_link(LinkSpec::new("Big", MAIN_SERVER, 100.0, 10.0))
        .with_link(LinkSpec::new("Mid", MAIN_SERVER, 100.0, 10.0))
        .with_link(LinkSpec::new("Small", MAIN_SERVER, 100.0, 10.0))
}

/// Three single-core jobs of one task, ~100 s of work each, submitted at
/// t = 0, 5000 and 20000 s — each long after the previous one finished.
fn trace() -> Trace {
    let jobs = [0.0, 5_000.0, 20_000.0]
        .iter()
        .enumerate()
        .map(|(i, &submit)| {
            let mut record = JobRecord::new(i as u64, JobKind::SingleCore, 1, 1_000.0);
            record.task_id = TaskId(7);
            record.submit_time = submit;
            record.input_bytes = 1_000_000_000;
            record.output_bytes = 0;
            record
        })
        .collect();
    Trace {
        jobs,
        ..Trace::default()
    }
}

fn run(plan: FaultPlan) -> Vec<Seen> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let policy = Recording {
        inner: DataAwarePolicy::new(),
        log: Arc::clone(&log),
    };
    let results = Simulation::builder()
        .platform_spec(&platform())
        .unwrap()
        .trace(trace())
        .policy(Box::new(policy))
        .execution(ExecutionConfig {
            cache_datasets: true,
            ..ExecutionConfig::default()
        })
        .fault_plan(plan)
        .run()
        .unwrap();
    assert!(results
        .outcomes
        .iter()
        .all(|o| o.final_state == JobState::Finished));
    let seen = log.lock().unwrap().clone();
    seen
}

fn assigned(seen: &[Seen], job: u64) -> &Seen {
    seen.iter()
        .find(|s| s.job == job && s.completed_at.is_none())
        .expect("job was dispatched")
}

fn replica_sites(view: &GridView) -> Vec<usize> {
    view.sites
        .iter()
        .filter(|s| s.has_input_replica)
        .map(|s| s.site.index())
        .collect()
}

const BIG: SiteId = SiteId(0);

#[test]
fn later_jobs_of_a_task_see_the_replica_until_the_disk_is_lost() {
    let disk_loss = FaultPlan {
        events: vec![FaultEvent {
            time_s: 10_000.0,
            action: FaultAction::DiskLoss { site: BIG.index() },
        }],
    };
    let seen = run(disk_loss);

    // The first job finds the input only at the main server and lands on
    // the biggest site, where running it leaves a cached replica.
    let first = assigned(&seen, 0);
    assert!(replica_sites(&first.view).is_empty());
    let done = seen.iter().find(|s| s.job == 0 && s.completed_at.is_some());
    assert_eq!(done.unwrap().completed_at, Some(BIG));

    // The second job of the task sees that replica, and only that one.
    let second = assigned(&seen, 1);
    assert_eq!(second.now_s, 5_000.0);
    assert_eq!(replica_sites(&second.view), vec![BIG.index()]);

    // The disk loss at t = 10000 wiped the site's replicas and its cache:
    // the third job no longer sees a replica anywhere.
    let third = assigned(&seen, 2);
    assert_eq!(third.now_s, 20_000.0);
    assert!(replica_sites(&third.view).is_empty());
}

#[test]
fn without_the_disk_loss_the_replica_survives() {
    let seen = run(FaultPlan::empty());
    let third = assigned(&seen, 2);
    assert_eq!(replica_sites(&third.view), vec![BIG.index()]);
}

#[test]
fn completion_hook_sees_one_entry_per_site() {
    let seen = run(FaultPlan::empty());
    let completions: Vec<&Seen> = seen.iter().filter(|s| s.completed_at.is_some()).collect();
    assert_eq!(completions.len(), 3);
    for c in completions {
        assert_eq!(c.view.sites.len(), 3);
        for (i, load) in c.view.sites.iter().enumerate() {
            assert_eq!(load.site.index(), i);
            assert!(load.up);
        }
        // The completing job already released its cores.
        assert_eq!(c.view.load(BIG).running_jobs, 0);
        assert!(c.now_s > 0.0);
    }
}
