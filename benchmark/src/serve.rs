//! The served workloads: closed-loop callers against an `orion-serve`
//! [`Server`], every response checked against the cleartext network.

use crate::compiler::{check_repeat, check_repeat_across_runs, CompileCounts, CompilerParts};
use crate::report::{peak_rss_mb, Report};
use crate::spans::Spans;
use crate::stats::{mean, median, tail, Tally};
use crate::{argmax, max_abs_bits, write_trace_files, RunOpts, PROGRAM_SEED};
use orion_ckks::CkksParams;
use orion_core::Orion;
use orion_linear::paged::{PageStats, PagedProgram};
use orion_linear::store::DiagStore;
use orion_models::data::synthetic_images;
use orion_models::{build, Act};
use orion_nn::compile::CompileOptions;
use orion_nn::fhe_exec::FheSession;
use orion_nn::network::Network;
use orion_serve::{ClientId, ModelId, ServeConfig, ServeOutput, Server};
use orion_sim::counter::OpKind;
use orion_sim::OpCounter;
use orion_telemetry::OpClass;
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Setup repetitions per untraced run (`setup_s` is their median).
const SETUP_REPS: usize = 3;
/// Distinct input images per caller, cycled through.
const IMAGES_PER_CALLER: usize = 32;
/// Calibration images for `fit`.
const CALIB_IMAGES: usize = 4;
/// A response below this many bits of agreement with the cleartext
/// network fails.
pub const PRECISION_FLOOR_BITS: f64 = 12.0;

/// A served workload's shape.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    /// Zoo model name.
    pub model: &'static str,
    /// CKKS parameters the model is compiled for and served at.
    pub params: CkksParams,
    /// Closed-loop callers, one client (own keys) each.
    pub callers: usize,
    /// Serve from the pager under a budget of half the encoded-weight
    /// footprint instead of resident prepared weights.
    pub paged: bool,
}

impl ServeSpec {
    /// The spec of a `serve-*` workload.
    pub fn for_workload(name: &str) -> Option<Self> {
        match name {
            "serve-mlp" => Some(Self {
                model: "mlp",
                params: CkksParams::small(),
                callers: 2,
                paged: false,
            }),
            "serve-lola-paged" => Some(Self {
                model: "lola",
                params: CkksParams::tiny(),
                callers: 1,
                paged: true,
            }),
            _ => None,
        }
    }
}

/// A fresh spill directory, removed when dropped (also while unwinding
/// from a panic).
pub struct SpillDir(PathBuf);

impl SpillDir {
    /// Creates an empty directory unique to this process under `root`.
    pub fn fresh(root: &Path) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("spill-{}-{n}", std::process::id()));
        // a leftover of a killed earlier process with the same pid
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Flushes every spilled file to disk, so the kernel's delayed
    /// write-back of the freshly paged-out weights does not land inside
    /// the timed request phase.
    pub fn sync(&self) -> std::io::Result<()> {
        for entry in std::fs::read_dir(&self.0)? {
            std::fs::File::open(entry?.path())?.sync_all()?;
        }
        Ok(())
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A started server with its model and clients. Field order is drop
/// order: the server shuts down before its spill directory goes.
struct Deployment {
    server: Server,
    model: ModelId,
    clients: Vec<ClientId>,
    spill: Option<SpillDir>,
}

/// The served network and its traffic.
struct Inputs {
    net: Network,
    calib: Vec<Tensor>,
    /// Per caller: input images and their cleartext references.
    images: Vec<Vec<Tensor>>,
    refs: Vec<Vec<Tensor>>,
}

fn inputs(spec: &ServeSpec, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(PROGRAM_SEED);
    let (net, info) = build(spec.model, Act::Square, &mut rng);
    let (c, h, w) = info.input;
    let calib = synthetic_images(c, h, w, CALIB_IMAGES, PROGRAM_SEED + 1);
    let images: Vec<Vec<Tensor>> = (0..spec.callers)
        .map(|i| synthetic_images(c, h, w, IMAGES_PER_CALLER, sub_seed(seed, 100 + i as u64)))
        .collect();
    let refs = images
        .iter()
        .map(|imgs| imgs.iter().map(|x| net.forward_exact(x)).collect())
        .collect();
    Inputs {
        net,
        calib,
        images,
        refs,
    }
}

/// A stream of the workload seed (images, key material).
fn sub_seed(seed: u64, role: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(role)
}

/// Compile, register the model, register every client, start: the
/// workload's setup, up to the first submittable request.
fn deploy(
    spec: &ServeSpec,
    inp: &Inputs,
    opts: &RunOpts,
    budget: Option<usize>,
    spans: &Spans,
) -> Result<(Deployment, CompileCounts), String> {
    let (compiled, _) = spans.timed("core.Orion::compile", None, || {
        Orion::for_params(&spec.params).compile(&inp.net, &inp.calib)
    });
    let counts = CompileCounts::of(&compiled);
    let mut server = Server::new(ServeConfig::default());
    let prep_seed = sub_seed(opts.seed, 2);
    let (model, spill) = match budget {
        Some(budget) => {
            let spill = SpillDir::fresh(&opts.out_dir.join("spill"))
                .map_err(|e| format!("cannot create spill directory: {e}"))?;
            let (m, _) = spans.timed("serve.add_model_paged", None, || {
                let p = spec.params.clone();
                server.add_model_paged(spec.model, compiled, p, prep_seed, spill.path(), budget)
            });
            (m.map_err(|e| e.to_string())?, Some(spill))
        }
        None => {
            let (m, _) = spans.timed("serve.add_model", None, || {
                server.add_model(spec.model, compiled, spec.params.clone(), prep_seed)
            });
            (m.map_err(|e| e.to_string())?, None)
        }
    };
    let clients = (0..spec.callers)
        .map(|i| {
            let seed = sub_seed(opts.seed, 10 + i as u64);
            let (c, _) = spans.timed("serve.add_client", None, || server.add_client(model, seed));
            c.map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    server.start();
    let dep = Deployment {
        server,
        model,
        clients,
        spill,
    };
    Ok((dep, counts))
}

/// One completed, checked request.
struct Sample {
    latency: f64,
    encrypt: f64,
    queue: f64,
    exec: f64,
    batch: f64,
    bits: f64,
}

/// The serving contract every response is held to.
#[derive(Default)]
struct Gate {
    /// Op-count fingerprint of the first response; all must repeat it.
    ops: Mutex<Option<String>>,
    /// The first response's counter, for the `ops.*` metrics.
    first: Mutex<Option<OpCounter>>,
    /// Responses whose class flipped inside the measured error.
    near_ties: AtomicU64,
}

impl Gate {
    fn check(&self, out: &ServeOutput, reference: &Tensor) -> Result<f64, String> {
        let (got, want) = (out.output.data(), reference.data());
        if got.len() != want.len() {
            return Err(format!(
                "{} outputs, reference has {}",
                got.len(),
                want.len()
            ));
        }
        let bits = max_abs_bits(got, want);
        if bits.is_nan() || bits < PRECISION_FLOOR_BITS {
            return Err(format!(
                "precision {bits:.2} bits is below the {PRECISION_FLOOR_BITS}-bit floor"
            ));
        }
        if argmax(got) != argmax(want) {
            // Every output is within 2^-bits of the reference, so the class
            // can only flip where the reference's top two outputs are closer
            // than twice that: a tie below the precision the run measures,
            // counted but not failed. A flip outside that band is wrong.
            let margin = top_two_margin(want);
            if margin > 2.0 * (-bits).exp2() {
                return Err(format!(
                    "argmax {} differs from reference {} (reference margin {margin:.3e})",
                    argmax(got),
                    argmax(want)
                ));
            }
            self.near_ties.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "note: class {} for reference class {}: the reference's top two outputs are {margin:.3e} apart, inside the {bits:.1}-bit error",
                argmax(got),
                argmax(want)
            );
        }
        if out.counter.encodes != 0 {
            return Err(format!(
                "{} per-request encodes (the contract is 0)",
                out.counter.encodes
            ));
        }
        let fp = format!("{:?} encodes={}", out.counter.all(), out.counter.encodes);
        check_repeat(
            &mut self.ops.lock().expect("gate poisoned"),
            fp,
            "per-request op counts",
        )?;
        self.first
            .lock()
            .expect("gate poisoned")
            .get_or_insert_with(|| out.counter.clone());
        Ok(bits)
    }
}

/// Closed-loop request phase: each caller sends its next request when the
/// previous one returned, until `seconds` have passed (at least one
/// request each). Returns the checked samples, the phase wall time and
/// the outcome tally.
fn phase(
    dep: &Deployment,
    inp: &Inputs,
    seconds: f64,
    spans: &Spans,
    gate: &Gate,
    next_req: &AtomicU64,
) -> (Vec<Sample>, f64, Tally) {
    let start = Instant::now();
    let per_caller: Vec<(Vec<Sample>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = dep
            .clients
            .iter()
            .enumerate()
            .map(|(i, &client)| {
                let (images, refs) = (&inp.images[i], &inp.refs[i]);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut tally = Tally::default();
                    let mut k = 0;
                    while k == 0 || start.elapsed().as_secs_f64() < seconds {
                        let idx = k % images.len();
                        k += 1;
                        let req = next_req.fetch_add(1, Ordering::Relaxed);
                        let (res, latency) = spans.timed("request", Some(req), || {
                            let (cts, encrypt) = spans.timed("client.encrypt", Some(req), || {
                                dep.server.encrypt(client, &images[idx])
                            });
                            let cts = cts?;
                            let (out, _) = spans
                                .timed("serve.infer", Some(req), || dep.server.infer(client, cts));
                            out.map(|o| (o, encrypt))
                        });
                        let checked = res.map_err(|e| e.to_string()).and_then(|(out, encrypt)| {
                            gate.check(&out, &refs[idx]).map(|bits| Sample {
                                latency,
                                encrypt,
                                queue: out.queue_seconds,
                                exec: out.wall_seconds,
                                batch: out.batch_size as f64,
                                bits,
                            })
                        });
                        match checked {
                            Ok(s) => {
                                tally.ok();
                                samples.push(s);
                            }
                            Err(why) => tally.fail(format!("request {req} (caller {i}): {why}")),
                        }
                    }
                    (samples, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    for (s, t) in per_caller {
        samples.extend(s);
        tally.merge(t);
    }
    (samples, wall, tally)
}

/// Distance between the largest and second-largest output.
fn top_two_margin(v: &[f64]) -> f64 {
    let mut sorted = v.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    match sorted.as_slice() {
        [a, b, ..] => a - b,
        _ => f64::INFINITY,
    }
}

fn column(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples.iter().map(f).collect()
}

/// Runs a `serve-*` workload.
pub fn run(opts: &RunOpts, report: &mut Report, tally: &mut Tally) -> Result<(), String> {
    let spec = ServeSpec::for_workload(&opts.workload).ok_or("not a serve workload")?;
    let spans = Spans::new(opts.trace);
    let quiet = Spans::new(false);
    let inp = inputs(&spec, opts.seed);
    let mut repeat_errors = Vec::new();
    let mut counts_seen = None;

    if opts.trace {
        let compile_opts = CompileOptions::from_params(&spec.params);
        let (parts, errors) = CompilerParts::measure(&inp.net, &inp.calib, &compile_opts, &spans);
        if errors {
            repeat_errors.push("the compiled model drew certification errors".to_string());
        }
        parts.report(report);
    }

    // Setup parts called directly; the paged workload also needs the
    // footprint to size its budget.
    let budget = if spec.paged || opts.trace {
        let compiled = Orion::for_params(&spec.params).compile(&inp.net, &inp.calib);
        let (session, keygen_s) = spans.timed("ckks.FheSession::new", None, || {
            FheSession::new(spec.params.clone(), &compiled, sub_seed(opts.seed, 3))
        });
        let (prepared, prepare_s) = spans.timed("nn.FheSession::prepare", None, || {
            session.prepare(&compiled)
        });
        let bytes = prepared.approx_bytes();
        if opts.trace {
            report.set("ckks.keygen_s", keygen_s);
            report.set("linear.prepare_s", prepare_s);
            report.set("linear.prepared_bytes", bytes as f64);
            if spec.paged {
                let spill = SpillDir::fresh(&opts.out_dir.join("spill"))
                    .map_err(|e| format!("cannot create spill directory: {e}"))?;
                let store = DiagStore::open(spill.path()).map_err(|e| e.to_string())?;
                let (paged, t) = spans.timed("linear.PagedProgram::page_out", None, || {
                    PagedProgram::page_out(&prepared, store, "sizing", bytes / 2)
                });
                paged.map_err(|e| e.to_string())?;
                report.set("linear.page_out_s", t);
            }
        }
        spec.paged.then_some(bytes / 2)
    } else {
        None
    };

    // Each setup serves an equal share of the request phase, and the
    // samples are pooled: a deployment settles into a timing regime of its
    // own (the pager's prefetch races, the two callers' relative phase),
    // so pooling several per run steadies the run-to-run figures.
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let gate = Gate::default();
    let next_req = AtomicU64::new(1);
    let mut setup_times = Vec::new();
    let mut samples = Vec::new();
    let mut wall = 0.0;
    let mut dep = None;
    for _ in 0..reps {
        drop(dep.take());
        let (deployed, t) =
            spans.timed("setup", None, || deploy(&spec, &inp, opts, budget, &spans));
        let (d, counts) = deployed?;
        setup_times.push(t);
        repeat_errors
            .extend(check_repeat(&mut counts_seen, format!("{counts:?}"), "compile counts").err());
        if opts.trace {
            counts.report(report);
        }
        if let Some(spill) = &d.spill {
            spill
                .sync()
                .map_err(|e| format!("cannot flush spill files: {e}"))?;
        }
        // Warm-up: one request per caller, checked but not timed.
        tally.merge(phase(&d, &inp, 0.0, &quiet, &gate, &next_req).2);
        let (s, w, t) = phase(
            &d,
            &inp,
            opts.seconds / reps as f64,
            &quiet,
            &gate,
            &next_req,
        );
        samples.extend(s);
        wall += w;
        tally.merge(t);
        dep = Some(d);
    }
    let dep = dep.expect("at least one setup ran");
    let latencies = column(&samples, |s| s.latency);
    let p50 = median(&latencies).ok_or("no request succeeded")?;

    let first = gate.first.lock().expect("gate poisoned").clone();
    let fingerprint = format!(
        "{} ops={:?}",
        counts_seen.clone().unwrap_or_default(),
        first.as_ref().map(|c| (c.all().clone(), c.encodes))
    );
    repeat_errors.extend(check_repeat_across_runs(opts, &fingerprint).err());
    tally.check(if repeat_errors.is_empty() {
        Ok(())
    } else {
        Err(repeat_errors.join("; "))
    });
    report.note("requests", Value::Num(samples.len() as f64));
    let note_ties = |report: &mut Report| {
        let ties = gate.near_ties.load(Ordering::Relaxed);
        report.note("argmax_near_ties", Value::Num(ties as f64));
    };
    report.note(
        "config",
        Value::Obj(vec![
            ("model".into(), Value::Str(spec.model.into())),
            ("ring_degree".into(), Value::Num(spec.params.n as f64)),
            ("callers".into(), Value::Num(spec.callers as f64)),
            (
                "workers".into(),
                Value::Num(ServeConfig::default().workers as f64),
            ),
            (
                "page_budget_bytes".into(),
                budget.map_or(Value::Null, |b| Value::Num(b as f64)),
            ),
        ]),
    );

    if !opts.trace {
        note_ties(report);
        let t = tail(&latencies).expect("non-empty");
        report.set("setup_s", median(&setup_times).expect("at least one setup"));
        report.set("latency_p50_s", p50);
        report.set("latency_tail_s", t.value);
        report.note_tail(t);
        report.set("throughput_rps", samples.len() as f64 / wall);
        let bits = column(&samples, |s| s.bits);
        report.set(
            "precision_bits_min",
            bits.iter().copied().fold(f64::INFINITY, f64::min),
        );
        report.set("peak_rss_mb", peak_rss_mb());
        return Ok(());
    }

    // Traced phase: the same closed loop with spans and telemetry on.
    orion_telemetry::enable();
    orion_telemetry::hist::clear_op_histograms();
    orion_telemetry::path::clear_runs();
    let page_before = dep.server.page_stats(dep.model);
    let (traced, _, t) = phase(&dep, &inp, opts.seconds, &spans, &gate, &next_req);
    let page_after = dep.server.page_stats(dep.model);
    orion_telemetry::disable();
    tally.merge(t);
    note_ties(report);
    if traced.is_empty() {
        return Err("no traced request succeeded".into());
    }
    let n = traced.len() as f64;

    let lat = column(&traced, |s| s.latency);
    let enc = column(&traced, |s| s.encrypt);
    let queue = column(&traced, |s| s.queue);
    let exec = column(&traced, |s| s.exec);
    report.set("serve.queue_wait_s", median(&queue).expect("non-empty"));
    report.set("serve.exec_s", median(&exec).expect("non-empty"));
    report.set("client.encrypt_s", median(&enc).expect("non-empty"));
    report.set("serve.batch_size_mean", mean(&column(&traced, |s| s.batch)));
    let attributed: f64 = enc.iter().chain(&queue).chain(&exec).sum();
    report.set(
        "serve.unattributed_frac",
        1.0 - attributed / lat.iter().sum::<f64>(),
    );
    report.set(
        "trace.overhead_frac",
        median(&lat).expect("non-empty") / p50 - 1.0,
    );
    report_server_errors(&dep.server.metrics(), report);
    if let Some(c) = &first {
        report_ops(c, report);
    }
    report_runs(report);
    report_op_classes(n, report);
    if let (Some(a), Some(b)) = (page_before, page_after) {
        report_pages(a, b, n, report);
    }
    write_trace_files(opts, &spans, dep.server.metrics_json());
    Ok(())
}

fn report_server_errors(metrics: &Value, report: &mut Report) {
    let by_class = metrics
        .get("models")
        .and_then(|m| match m {
            Value::Arr(models) => models.first(),
            _ => None,
        })
        .and_then(|m| m.get("errors_by_class"));
    for (class, name) in [
        ("queue_full", "serve.errors.queue_full"),
        ("store_fault", "serve.errors.store_fault"),
        ("panic", "serve.errors.panic"),
        ("bad_input", "serve.errors.bad_input"),
    ] {
        let v = by_class.and_then(|b| b.get(class)).and_then(Value::as_f64);
        report.set(name, v.unwrap_or(0.0));
    }
}

fn report_ops(c: &OpCounter, report: &mut Report) {
    for (kind, name) in [
        (OpKind::HRot, "ops.hrot"),
        (OpKind::HRotHoisted, "ops.hrot_hoisted"),
        (OpKind::Hoist, "ops.hoist"),
        (OpKind::PMult, "ops.pmult"),
        (OpKind::HMult, "ops.hmult"),
        (OpKind::Rescale, "ops.rescale"),
        (OpKind::Bootstrap, "ops.bootstrap"),
    ] {
        report.set(name, c.count(kind) as f64);
    }
    report.set("ops.encodes", c.encodes as f64);
    report.set("ops.model_s", c.seconds);
}

/// Scheduler run reports of the traced phase, averaged per request.
fn report_runs(report: &mut Report) {
    let runs: Vec<_> = orion_telemetry::runs()
        .into_iter()
        .filter(|r| r.req.is_some())
        .collect();
    if runs.is_empty() {
        return;
    }
    let per_run = |f: fn(&orion_telemetry::RunReport) -> u64| {
        runs.iter().map(|r| f(r) as f64 * 1e-9).sum::<f64>() / runs.len() as f64
    };
    let busy = per_run(|r| r.busy_ns);
    let wall = per_run(|r| r.wall_ns);
    report.set("sched.busy_s", busy);
    report.set("sched.ready_wait_s", per_run(|r| r.queue_ns));
    report.set("sched.critical_path_s", per_run(|r| r.critical_path_ns));
    report.set(
        "sched.parallelism",
        if wall > 0.0 { busy / wall } else { 0.0 },
    );
    report.note("sched_runs_sampled", Value::Num(runs.len() as f64));
}

/// Op-class histogram totals of the traced phase, per request.
fn report_op_classes(requests: f64, report: &mut Report) {
    let classes: [(&[OpClass], &'static str, &'static str); 8] = [
        (
            &[OpClass::NttFwd, OpClass::NttInv],
            "math.ntt_s",
            "math.ntt_calls",
        ),
        (
            &[OpClass::Pointwise],
            "math.pointwise_s",
            "math.pointwise_calls",
        ),
        (
            &[OpClass::KeySwitch],
            "ckks.key_switch_s",
            "ckks.key_switch_calls",
        ),
        (&[OpClass::Rescale], "ckks.rescale_s", "ckks.rescale_calls"),
        (
            &[OpClass::Bootstrap],
            "ckks.bootstrap_s",
            "ckks.bootstrap_calls",
        ),
        (
            &[OpClass::LinearLayer],
            "linear.layer_s",
            "linear.layer_calls",
        ),
        (&[OpClass::PolyStage], "poly.stage_s", "poly.stage_calls"),
        (
            &[OpClass::PageLoad],
            "linear.page_load_s",
            "linear.page_load_calls",
        ),
    ];
    for (members, secs, calls) in classes {
        let hists = members.iter().map(|&c| orion_telemetry::op_histogram(c));
        let (ns, count) = hists.fold((0u64, 0u64), |(s, n), h| (s + h.sum(), n + h.count()));
        if count == 0 {
            continue;
        }
        report.set(secs, ns as f64 * 1e-9 / requests);
        report.set(calls, count as f64 / requests);
    }
}

fn report_pages(a: PageStats, b: PageStats, requests: f64, report: &mut Report) {
    let faults = (b.faults - a.faults) as f64;
    let hits = (b.hits - a.hits) as f64;
    report.set("page.faults", faults / requests);
    report.set(
        "page.evictions",
        (b.evictions - a.evictions) as f64 / requests,
    );
    report.set(
        "page.prefetch_hits",
        (b.prefetch_hits - a.prefetch_hits) as f64 / requests,
    );
    report.set(
        "page.hit_ratio",
        if hits + faults > 0.0 {
            hits / (hits + faults)
        } else {
            0.0
        },
    );
}
