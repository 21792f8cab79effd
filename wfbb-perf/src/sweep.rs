//! `paper_sweep`: the paper's own use of the simulator — many short
//! single-workflow predictions, closed loop on one thread.
//!
//! One pass runs every scenario of the grid once, in an order shuffled
//! by the seed: SWarp (1, 4, 16, 32 pipelines × 16 cores, 1 node) and
//! 1000Genomes (2, 8, 22 chromosomes, 4 nodes) on private and striped
//! Cori and on Summit, staging 0, 0.5 or all of the inputs into the
//! burst buffer, plus a resilience slice that drives the executor's
//! checkpoint/restore lifecycle under seeded BB failures.
//!
//! Untraced, each simulation is one `SimulationBuilder::run`. Traced,
//! the harness drives the same steps through the public entry points
//! `SimulationBuilder::run` uses (`Engine::new`, `PlacementPolicy::plan`,
//! `Executor::shared` / `start` / `on_completion` / `report`) with a
//! span around each, and checks that its makespans equal
//! `SimulationBuilder::run`'s bit for bit.

use std::cell::RefCell;
use std::mem::Discriminant;
use std::rc::Rc;
use std::time::{Duration, Instant};

use wfbb_platform::PlatformSpec;
use wfbb_resilience::CheckpointPolicy;
use wfbb_sched::build_workflow;
use wfbb_serve::runner::parse_platform;
use wfbb_simcore::{Engine, EngineCounters, TelemetryConfig};
use wfbb_storage::{FailoverPolicy, PlacementPolicy, StorageSystem};
use wfbb_wms::{Executor, FaultSpec, SchedulerPolicy, SimulationBuilder, SimulationReport, Tag};
use wfbb_workflow::Workflow;

use crate::metrics::Outcome;
use crate::reference::Reference;
use crate::stats::{Rng, Summary};
use crate::trace::Tracer;
use crate::{layers, Opts};

/// One grid point, as text: the key the reference file uses.
#[derive(Debug, Clone)]
struct Scenario {
    workflow: &'static str,
    platform: &'static str,
    nodes: usize,
    fraction: f64,
    checkpoint: Option<&'static str>,
    faults: Option<String>,
    failover: FailoverPolicy,
}

impl Scenario {
    fn key(&self) -> String {
        let mut k = format!(
            "{}@{}/n{}/f{}",
            self.workflow, self.platform, self.nodes, self.fraction
        );
        if let Some(c) = self.checkpoint {
            k += &format!("/ckpt={c}");
        }
        if let Some(f) = &self.faults {
            let fo = match self.failover {
                FailoverPolicy::RerouteToPfs => "pfs",
                FailoverPolicy::SurvivingBb => "bb",
            };
            k += &format!("/faults={f}/failover={fo}");
        }
        k
    }
}

/// The base seed of the resilience slice's BB failures: fixed, so every
/// run checks every scenario against the reference whatever its `--seed`.
const FAULT_SEED: u64 = 42;

/// The grid; `quick` keeps one SWarp and one Genomes size.
fn grid(quick: bool) -> Vec<Scenario> {
    let swarp: &[&'static str] = if quick {
        &["swarp:4:16"]
    } else {
        &["swarp:1:16", "swarp:4:16", "swarp:16:16", "swarp:32:16"]
    };
    let genomes: &[&'static str] = if quick {
        &["genomes:2"]
    } else {
        &["genomes:2", "genomes:8", "genomes:22"]
    };
    let mut out = Vec::new();
    let plain = |workflow, nodes, out: &mut Vec<Scenario>| {
        for platform in ["cori:private", "cori:striped", "summit"] {
            for fraction in [0.0, 0.5, 1.0] {
                out.push(Scenario {
                    workflow,
                    platform,
                    nodes,
                    fraction,
                    checkpoint: None,
                    faults: None,
                    failover: FailoverPolicy::default(),
                });
            }
        }
    };
    for &w in swarp {
        plain(w, 1, &mut out);
    }
    for &w in genomes {
        plain(w, 4, &mut out);
    }
    // The resilience slice: checkpoint writes and restores under two
    // seeded BB failures, with both failover policies.
    let mut slice: Vec<(&'static str, usize, Option<&'static str>, FailoverPolicy)> = Vec::new();
    for (w, nodes) in [("swarp:16:16", 1), ("genomes:8", 4)] {
        for (ckpt, fo) in [
            ("16@bb", FailoverPolicy::RerouteToPfs),
            ("16@pfs", FailoverPolicy::SurvivingBb),
            ("60@bb", FailoverPolicy::SurvivingBb),
            ("60@pfs", FailoverPolicy::RerouteToPfs),
        ] {
            slice.push((w, nodes, Some(ckpt), fo));
        }
    }
    slice.push(("swarp:32:16", 1, None, FailoverPolicy::SurvivingBb));
    if quick {
        slice.truncate(2);
    }
    for (i, (workflow, nodes, checkpoint, failover)) in slice.into_iter().enumerate() {
        let fault_seed = Rng::derive(FAULT_SEED, 1000 + i as u64).next_u64() % 1_000_000;
        out.push(Scenario {
            workflow,
            platform: "cori:striped",
            nodes,
            fraction: 1.0,
            checkpoint,
            faults: Some(format!("seed:{fault_seed}:2@600")),
            failover,
        });
    }
    out
}

/// The inputs of one simulation: what `setup_s` times.
pub struct Prepared {
    pub key: String,
    pub platform: PlatformSpec,
    pub workflow: Workflow,
    pub placement: PlacementPolicy,
    pub checkpoint: Option<CheckpointPolicy>,
    pub faults: FaultSpec,
    pub failover: FailoverPolicy,
}

fn prepare(scenarios: &[Scenario]) -> Result<Vec<Prepared>, String> {
    scenarios
        .iter()
        .map(|s| {
            let fail = |e: String| format!("{}: {e}", s.key());
            let checkpoint = s
                .checkpoint
                .map(CheckpointPolicy::parse)
                .transpose()
                .map_err(|e| fail(e.to_string()))?;
            let faults = match &s.faults {
                Some(f) => FaultSpec::parse(f).map_err(|e| fail(e.to_string()))?,
                None => FaultSpec::new(),
            };
            Ok(Prepared {
                key: s.key(),
                platform: parse_platform(s.platform, s.nodes).map_err(fail)?,
                workflow: build_workflow(s.workflow).map_err(|e| fail(e.to_string()))?,
                placement: PlacementPolicy::FractionToBb {
                    fraction: s.fraction,
                },
                checkpoint,
                faults,
                failover: s.failover,
            })
        })
        .collect()
}

/// The user-facing entry point.
fn run_builder(p: &Prepared) -> Result<SimulationReport, String> {
    let mut b = SimulationBuilder::new(p.platform.clone(), p.workflow.clone())
        .placement(p.placement.clone());
    if let Some(c) = p.checkpoint {
        b = b.checkpoint(c);
    }
    if !p.faults.is_empty() {
        b = b.faults(p.faults.clone()).failover(p.failover);
    }
    b.run().map_err(|e| format!("{}: {e}", p.key))
}

/// What the traced single-run path hands back.
pub struct Driven {
    pub report: SimulationReport,
    pub counters: EngineCounters,
}

/// The steps of `SimulationBuilder::run` and `Executor::run` through
/// public entry points, one span each, so makespans must match
/// `SimulationBuilder::run`'s bit for bit. `telemetry` turns engine
/// telemetry on, as the service does.
pub fn drive(tr: &mut Tracer, p: &Prepared, telemetry: bool) -> Result<Driven, String> {
    let fail = |e: String| format!("{}: {e}", p.key);
    tr.open_hot("wms.setup");
    let setup = (|| {
        p.platform.validate().map_err(|e| e.to_string())?;
        let mut engine = Engine::new();
        if telemetry {
            engine.set_telemetry_config(TelemetryConfig::enabled());
        }
        let instance = p.platform.instantiate(&mut engine);
        let mut storage = StorageSystem::new(instance);
        storage.set_failover(p.failover);
        let events = p
            .faults
            .resolve(storage.platform.bb_devices())
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((engine, storage, events))
    })();
    tr.close();
    let (engine, storage, events) = setup.map_err(fail)?;
    let plan = tr.hot("storage.placement", || p.placement.plan(&p.workflow));
    tr.open_hot("wms.setup");
    let engine = Rc::new(RefCell::new(engine));
    let mut ex = Executor::shared(
        engine.clone(),
        0,
        storage,
        p.workflow.clone(),
        plan,
        None,
        SchedulerPolicy::default(),
    );
    if let Some(c) = p.checkpoint {
        ex.set_checkpoint_policy(c);
    }
    let injected = !events.is_empty();
    if injected {
        ex.set_fault_injection(events, Default::default());
    }
    tr.close();
    tr.hot("wms.start", || ex.start());
    loop {
        let step = tr.hot("simcore.step", || engine.borrow_mut().try_step());
        let Some(c) = step.map_err(|e| fail(e.to_string()))? else {
            break;
        };
        tr.hot(callback_span(&c.tag.tag), || {
            ex.on_completion(c.id, c.tag.tag)
        })
        .map_err(|e| fail(e.to_string()))?;
        if injected && ex.is_complete() {
            break;
        }
    }
    if !ex.is_complete() {
        return Err(fail("execution ended with unfinished tasks".into()));
    }
    let report = tr.hot("wms.report", || ex.report());
    let counters = *engine.borrow().counters();
    Ok(Driven { report, counters })
}

/// `wms.callback.<Variant>`: the span of a completion's callback, by
/// its tag's variant as `Debug` names it, so the breakdown follows the
/// enum through renames. Each name is leaked once per process.
fn callback_span(tag: &Tag) -> &'static str {
    thread_local! {
        static NAMES: RefCell<Vec<(Discriminant<Tag>, &'static str)>> =
            const { RefCell::new(Vec::new()) };
    }
    let key = std::mem::discriminant(tag);
    NAMES.with_borrow_mut(|names| {
        if let Some(&(_, name)) = names.iter().find(|(k, _)| *k == key) {
            return name;
        }
        let debug = format!("{tag:?}");
        let variant = debug
            .split(|c: char| !c.is_alphanumeric())
            .next()
            .unwrap_or("");
        let name: &'static str = Box::leak(format!("wms.callback.{variant}").into_boxed_str());
        names.push((key, name));
        name
    })
}

/// The exact five-term identity of every task: pure compute +
/// serialized I/O + contention wait + fault wait + checkpoint I/O ==
/// duration, within 1e-9 relative.
pub fn identity_holds(report: &SimulationReport) -> Result<(), String> {
    for t in &report.tasks {
        let sum =
            t.pure_compute + t.serialized_io + t.contention_wait + t.fault_wait + t.checkpoint_io;
        if (sum - t.duration()).abs() > 1e-9 * t.duration().max(1.0) {
            return Err(format!(
                "task {}: decomposition {sum} != duration {}",
                t.name,
                t.duration()
            ));
        }
    }
    Ok(())
}

fn check_run(
    out: &mut Outcome,
    reference: &Reference,
    p: &Prepared,
    result: &Result<SimulationReport, String>,
) {
    match result {
        Err(e) => out.check(false, || e.clone()),
        Ok(report) => {
            out.check(identity_holds(report).is_ok(), || {
                format!("{}: {}", p.key, identity_holds(report).unwrap_err())
            });
            let makespan = report.makespan.seconds();
            if let Some(problem) = reference.check_close("sweep", &p.key, makespan, 1e-9) {
                out.check(false, || problem);
            }
        }
    }
}

/// Whole passes until `seconds` have elapsed. Each op is one
/// simulation; the order of every pass is shuffled by the seed.
pub fn run(opts: &Opts, reference: &Reference) -> Outcome {
    let mut out = Outcome::default();
    let scenarios = grid(opts.quick);

    // Each pass sets its inputs up anew, so the set-up samples spread
    // over the run like the ops do.
    let timed_prepare = |out: &mut Outcome, setups: &mut Vec<f64>| {
        let t = Instant::now();
        let p = prepare(&scenarios);
        setups.push(t.elapsed().as_secs_f64());
        p.map_err(|e| out.check(false, || e)).ok()
    };
    let mut setups = Vec::new();
    let Some(mut prepared) = timed_prepare(&mut out, &mut setups) else {
        return out;
    };

    let budget = Duration::from_secs_f64(opts.seconds);
    let order = |pass: u64, n: usize| {
        let mut idx: Vec<usize> = (0..n).collect();
        Rng::derive(opts.seed, pass).shuffle(&mut idx);
        idx
    };

    if !opts.trace {
        let mut lat = Vec::new();
        let start = Instant::now();
        let mut pass = 0;
        while start.elapsed() < budget || pass == 0 {
            if pass > 0 {
                let Some(p) = timed_prepare(&mut out, &mut setups) else {
                    return out;
                };
                prepared = p;
            }
            for i in order(pass, prepared.len()) {
                let t = Instant::now();
                let result = run_builder(&prepared[i]);
                lat.push(t.elapsed().as_secs_f64());
                check_run(&mut out, reference, &prepared[i], &result);
            }
            pass += 1;
        }
        out.set_summary(
            "setup_s",
            crate::stats::median(&setups),
            Summary::of(&setups),
        );
        crate::latency_metrics(&mut out, &lat);
        out.set(
            "peak_rss_mb",
            crate::metrics::peak_rss_mb("self").unwrap_or(0.0),
        );
        crate::reference::check_tables(&mut out, reference, opts.quick);
        return out;
    }

    // Traced: each simulation runs through `SimulationBuilder` and the
    // traced path back to back, which goes first alternating, so host
    // drift hits both alike; the makespans must agree bit for bit.
    let mut tr = Tracer::new(true);
    let mut untraced_s = 0.0;
    let mut first_pass = EngineCounters::default();
    let start = Instant::now();
    let mut pass = 0;
    let mut n = 0u64;
    while start.elapsed() < budget || pass == 0 {
        for i in order(pass, prepared.len()) {
            let p = &prepared[i];
            let untraced = |untraced_s: &mut f64| {
                let t = Instant::now();
                let result = run_builder(p);
                *untraced_s += t.elapsed().as_secs_f64();
                result
            };
            let traced = |tr: &mut Tracer| {
                tr.open("op.sim");
                let driven = drive(tr, p, false);
                tr.close();
                driven
            };
            let (result, driven) = if n.is_multiple_of(2) {
                let r = untraced(&mut untraced_s);
                (r, traced(&mut tr))
            } else {
                let d = traced(&mut tr);
                (untraced(&mut untraced_s), d)
            };
            n += 1;
            check_run(&mut out, reference, p, &result);
            match (driven, result) {
                (Ok(d), Ok(r)) => {
                    let (a, b) = (d.report.makespan.seconds(), r.makespan.seconds());
                    out.check(a.to_bits() == b.to_bits(), || {
                        format!(
                            "{}: traced makespan {a} != SimulationBuilder::run {b}",
                            p.key
                        )
                    });
                    if pass == 0 {
                        layers::add_counters(&mut first_pass, &d.counters);
                    }
                }
                (Err(e), _) => out.check(false, || e),
                (Ok(_), Err(_)) => {}
            }
        }
        pass += 1;
    }
    let traced_s = tr.total_ns("op.sim") as f64 / 1e9;
    layers::engine_counters(&mut out, &first_pass);
    out.set("wms.callbacks", first_pass.completions as f64);
    layers::shares(&mut out, &tr, &["op.sim"], 0.0);
    // Every pass runs the same simulations.
    layers::unit_costs(
        &mut out,
        &tr,
        first_pass.events * pass,
        first_pass.completions * pass,
    );
    out.set("trace.overhead", traced_s / untraced_s - 1.0);
    crate::write_trace(opts, &tr, &mut out);
    out
}

/// Makespan of every scenario of the grid, for `write-reference`.
pub fn reference_makespans(quick: bool) -> Result<Vec<(String, f64)>, String> {
    let prepared = prepare(&grid(quick))?;
    prepared
        .iter()
        .map(|p| {
            let r = run_builder(p)?;
            identity_holds(&r).map_err(|e| format!("{}: {e}", p.key))?;
            Ok((p.key.clone(), r.makespan.seconds()))
        })
        .collect()
}
