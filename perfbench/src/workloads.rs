//! The three workloads. Each builds its inputs from the seed, its oracle
//! from those inputs, and its serving stack through the public API only.
//!
//! * `edge_small` — `HttpServer::bind` over one `Runtime`, lite
//!   SRResNet/SCALES, 16×16 PPM over two keep-alive connections: fixed
//!   per-request costs (http, codec, batcher) dominate.
//! * `bulk_paper` — in-process `Runtime::submit` of 4-image requests to
//!   SRResNet/SCALES at the paper's 64 channels; `max_batch` equals the
//!   request size, so every dispatch is one full batch and the batching
//!   window never runs: kernels and executor dominate.
//! * `fleet_mixed` — `HttpServer::bind_router` over two path-backed
//!   models, mixed non-square shapes, half PPM half PNG, three tenants,
//!   and `ModelRouter::reload` hot-swaps on a fixed schedule.

use crate::lanes::{bits_fingerprint, BulkItem, HttpItem, HttpLane, RuntimeLane};
use crate::load::{Lane, Load, Phase};
use scales_core::Method;
use scales_data::{codec, Image, WireFormat};
use scales_http::{HttpConfig, HttpServer};
use scales_models::{rcan, srresnet, DeployedNetwork, SrConfig, SrNetwork};
use scales_router::{ModelRouter, RouterConfig};
use scales_runtime::{Runtime, RuntimeConfig, RuntimeStats};
use scales_serve::{Engine, Precision, SrRequest};
use scales_telemetry::RequestTrace;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Generator threads and connections: the box's core count (2).
pub const LANES: usize = 2;

/// A running serving stack.
pub trait Stack {
    /// One lane per generator thread.
    ///
    /// # Errors
    ///
    /// A connection that cannot be opened.
    fn lanes(&self) -> Result<Vec<Box<dyn Lane + Send + '_>>, String>;
    /// Live serving counters (a fleet's folded across models).
    fn stats(&self) -> RuntimeStats;
    /// Runtime worker threads serving requests.
    fn workers(&self) -> usize;
    /// The server's flight-recorder traces (empty in-process).
    fn traces(&self) -> Vec<RequestTrace> {
        Vec::new()
    }
    /// Work the main thread does during a phase's sending window;
    /// returns the durations of the hot-swaps it made.
    fn control(&self, _phase: &Phase, _start: Instant, _end: Instant) -> Vec<Duration> {
        Vec::new()
    }
    /// Bytes the router charges for resident models (0 without one).
    fn resident_bytes(&self) -> usize {
        0
    }
    /// Drain and stop; the final serving counters.
    fn shutdown(self: Box<Self>) -> RuntimeStats;
}

/// A workload with its inputs and oracle built.
pub trait Workload {
    /// The fixed rates and windows of one round of measured phases, for
    /// a run of `seconds`.
    fn phases(&self, seconds: f64) -> Vec<Phase>;
    /// The latency limit `busy_slo_share` counts against.
    fn slo(&self) -> Duration;
    /// Items in the input pool.
    fn pool_len(&self) -> usize;
    /// Build and start the serving stack.
    ///
    /// # Errors
    ///
    /// Any failure building the model, runtime, router or server.
    fn build(&self, profile_ops: bool) -> Result<Box<dyn Stack + '_>, String>;
    /// The lowered graphs this workload serves, each with the LR shape
    /// its kernels are replayed at.
    fn graphs(&self) -> Vec<(&DeployedNetwork, usize, usize)>;
}

/// Rounds per run: the phases repeat this many times, so a burst of
/// noise on the box hits one round, and each metric is the median over
/// rounds.
pub const ROUNDS: usize = 5;

/// One round's light, busy and saturation windows, for a run of
/// `seconds` split 30/30/40 between them.
fn three_phases(seconds: f64, light: f64, busy: f64, window: usize) -> Vec<Phase> {
    let secs = |share: f64| Duration::from_secs_f64(seconds * share / ROUNDS as f64);
    vec![
        Phase {
            name: "light",
            load: Load::Open { rate: light },
            duration: secs(0.3),
        },
        Phase {
            name: "busy",
            load: Load::Open { rate: busy },
            duration: secs(0.3),
        },
        Phase {
            name: "saturation",
            load: Load::Closed { window },
            duration: secs(0.4),
        },
    ]
}

fn scene(h: usize, w: usize, seed: u64) -> Image {
    scales_data::synth::scene(
        h,
        w,
        scales_data::synth::SceneConfig::default(),
        &mut scales_nn::init::rng(seed),
    )
}

/// The per-image seed: distinct inputs for every (workload seed, item).
fn item_seed(seed: u64, item: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(item as u64)
}

fn deployed_engine(net: impl SrNetwork + 'static) -> Result<Engine<'static>, String> {
    Engine::builder()
        .model(net)
        .precision(Precision::Deployed)
        .build()
        .map_err(|e| format!("engine: {e}"))
}

fn runtime_config(profile_ops: bool, max_batch: usize) -> RuntimeConfig {
    RuntimeConfig {
        max_batch,
        profile_ops,
        ..RuntimeConfig::default()
    }
}

fn http_config() -> HttpConfig {
    // Workers match the connections; the recorder keeps every request
    // of a traced run so client and server spans can be linked.
    HttpConfig {
        workers: LANES,
        trace_capacity: 1 << 15,
        ..HttpConfig::default()
    }
}

/// The oracle for one HTTP item: decoded wire image → `Session::infer`
/// on the same model and backend → `encode_image` → fingerprint.
fn http_oracle(engine: &Engine<'_>, body: &[u8]) -> Result<u64, String> {
    let (lr, format) = codec::decode_image(body).map_err(|e| format!("oracle decode: {e}"))?;
    let sr = engine
        .session()
        .infer(SrRequest::single(lr))
        .map_err(|e| format!("oracle infer: {e}"))?;
    let bytes =
        codec::encode_image(&sr.images()[0], format).map_err(|e| format!("oracle encode: {e}"))?;
    Ok(scales_io::fingerprint(&bytes))
}

// ---------------------------------------------------------------- edge_small

const EDGE_SIDE: usize = 16;
const EDGE_POOL: usize = 64;

fn edge_net() -> Result<impl SrNetwork, String> {
    srresnet(SrConfig {
        channels: 16,
        blocks: 2,
        scale: 2,
        method: Method::scales(),
        seed: 7,
    })
    .map_err(|e| format!("edge model: {e}"))
}

/// `edge_small`: see the module docs.
pub struct EdgeSmall {
    items: Vec<HttpItem>,
    oracle: Engine<'static>,
}

impl EdgeSmall {
    /// Inputs and oracle for `seed`.
    ///
    /// # Errors
    ///
    /// Model, codec or oracle failures.
    pub fn prepare(seed: u64) -> Result<Self, String> {
        let oracle = deployed_engine(edge_net()?)?;
        let items = (0..EDGE_POOL)
            .map(|i| {
                let body = codec::encode_image(
                    &scene(EDGE_SIDE, EDGE_SIDE, item_seed(seed, i)),
                    WireFormat::Ppm,
                )
                .map_err(|e| format!("encode: {e}"))?;
                let expected = http_oracle(&oracle, &body)?;
                Ok(HttpItem {
                    path: "/v1/upscale".into(),
                    content_type: WireFormat::Ppm.content_type(),
                    headers: Vec::new(),
                    body,
                    expected,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self { items, oracle })
    }
}

struct EdgeStack<'a> {
    server: HttpServer,
    items: &'a [HttpItem],
}

impl Stack for EdgeStack<'_> {
    fn lanes(&self) -> Result<Vec<Box<dyn Lane + Send + '_>>, String> {
        (0..LANES)
            .map(|_| {
                HttpLane::open(self.server.addr(), self.items)
                    .map(|l| Box::new(l) as Box<dyn Lane + Send>)
                    .map_err(|e| format!("connect: {e}"))
            })
            .collect()
    }
    fn stats(&self) -> RuntimeStats {
        self.server
            .runtime()
            .expect("single-runtime server")
            .stats()
    }
    fn workers(&self) -> usize {
        self.server
            .runtime()
            .expect("single-runtime server")
            .workers()
    }
    fn traces(&self) -> Vec<RequestTrace> {
        self.server.traces()
    }
    fn shutdown(self: Box<Self>) -> RuntimeStats {
        self.server.shutdown()
    }
}

impl Workload for EdgeSmall {
    fn phases(&self, seconds: f64) -> Vec<Phase> {
        three_phases(seconds, 110.0, 300.0, 2)
    }
    fn slo(&self) -> Duration {
        Duration::from_millis(25)
    }
    fn pool_len(&self) -> usize {
        self.items.len()
    }
    fn build(&self, profile_ops: bool) -> Result<Box<dyn Stack + '_>, String> {
        let runtime = Runtime::spawn(
            deployed_engine(edge_net()?)?,
            runtime_config(profile_ops, 8),
        )
        .map_err(|e| format!("runtime: {e}"))?;
        let server = HttpServer::bind("127.0.0.1:0", runtime, http_config())
            .map_err(|e| format!("bind: {e}"))?;
        Ok(Box::new(EdgeStack {
            server,
            items: &self.items,
        }))
    }
    fn graphs(&self) -> Vec<(&DeployedNetwork, usize, usize)> {
        self.oracle
            .lowered()
            .map(|g| (g, EDGE_SIDE, EDGE_SIDE))
            .into_iter()
            .collect()
    }
}

// ---------------------------------------------------------------- bulk_paper

/// The paper's body width.
const BULK_CHANNELS: usize = 64;
const BULK_BLOCKS: usize = 4;
const BULK_SIDE: usize = 12;
const BULK_IMAGES: usize = 4;
const BULK_POOL: usize = 8;

fn bulk_net() -> Result<impl SrNetwork, String> {
    srresnet(SrConfig {
        channels: BULK_CHANNELS,
        blocks: BULK_BLOCKS,
        scale: 2,
        method: Method::scales(),
        seed: 7,
    })
    .map_err(|e| format!("bulk model: {e}"))
}

/// `bulk_paper`: see the module docs.
pub struct BulkPaper {
    items: Vec<BulkItem>,
    oracle: Engine<'static>,
}

impl BulkPaper {
    /// Inputs and oracle for `seed`.
    ///
    /// # Errors
    ///
    /// Model or oracle failures.
    pub fn prepare(seed: u64) -> Result<Self, String> {
        let oracle = deployed_engine(bulk_net()?)?;
        let session = oracle.session();
        let items = (0..BULK_POOL)
            .map(|r| {
                let images: Vec<Image> = (0..BULK_IMAGES)
                    .map(|i| scene(BULK_SIDE, BULK_SIDE, item_seed(seed, r * BULK_IMAGES + i)))
                    .collect();
                let sr = session
                    .infer(SrRequest::batch(images.clone()))
                    .map_err(|e| format!("oracle infer: {e}"))?;
                Ok(BulkItem {
                    expected: bits_fingerprint(sr.images()),
                    images,
                })
            })
            .collect::<Result<_, String>>()?;
        drop(session);
        Ok(Self { items, oracle })
    }
}

struct BulkStack<'a> {
    runtime: Runtime,
    items: &'a [BulkItem],
}

impl Stack for BulkStack<'_> {
    fn lanes(&self) -> Result<Vec<Box<dyn Lane + Send + '_>>, String> {
        Ok((0..LANES)
            .map(|_| Box::new(RuntimeLane::new(&self.runtime, self.items)) as Box<dyn Lane + Send>)
            .collect())
    }
    fn stats(&self) -> RuntimeStats {
        self.runtime.stats()
    }
    fn workers(&self) -> usize {
        self.runtime.workers()
    }
    fn shutdown(self: Box<Self>) -> RuntimeStats {
        self.runtime.shutdown()
    }
}

impl Workload for BulkPaper {
    fn phases(&self, seconds: f64) -> Vec<Phase> {
        three_phases(seconds, 36.0, 100.0, 3)
    }
    fn slo(&self) -> Duration {
        Duration::from_millis(150)
    }
    fn pool_len(&self) -> usize {
        self.items.len()
    }
    fn build(&self, profile_ops: bool) -> Result<Box<dyn Stack + '_>, String> {
        // `max_batch` is the request size: a popped request is a full
        // batch, so the batching window never runs on this workload.
        let runtime = Runtime::spawn(
            deployed_engine(bulk_net()?)?,
            runtime_config(profile_ops, BULK_IMAGES),
        )
        .map_err(|e| format!("runtime: {e}"))?;
        Ok(Box::new(BulkStack {
            runtime,
            items: &self.items,
        }))
    }
    fn graphs(&self) -> Vec<(&DeployedNetwork, usize, usize)> {
        self.oracle
            .lowered()
            .map(|g| (g, BULK_SIDE, BULK_SIDE))
            .into_iter()
            .collect()
    }
}

// --------------------------------------------------------------- fleet_mixed

/// LR shapes of the fleet's traffic, non-square ones included, so
/// requests rarely share a shape and rarely coalesce.
const FLEET_SHAPES: [(usize, usize); 6] =
    [(16, 16), (12, 20), (20, 12), (16, 24), (24, 16), (10, 30)];
const FLEET_POOL: usize = 48;
const FLEET_MODELS: [&str; 2] = ["srresnet", "rcan"];
const FLEET_TENANTS: [&str; 3] = ["t0", "t1", "t2"];
/// A deadline far above any latency the fleet shows, so none expires.
const FLEET_DEADLINE_MS: u64 = 10_000;
/// One hot-swap this often during busy and saturation, models taking turns.
const RELOAD_PERIOD: Duration = Duration::from_millis(1000);

fn fleet_lowered(model: usize) -> Result<DeployedNetwork, String> {
    let config = |seed| SrConfig {
        channels: 16,
        blocks: 2,
        scale: 2,
        method: Method::scales(),
        seed,
    };
    let lowered = if model == 0 {
        srresnet(config(11)).and_then(|n| n.lower())
    } else {
        rcan(config(13)).and_then(|n| n.lower())
    };
    lowered.map_err(|e| format!("fleet model: {e}"))
}

/// `fleet_mixed`: see the module docs.
pub struct FleetMixed {
    items: Vec<HttpItem>,
    dir: PathBuf,
    graphs: Vec<DeployedNetwork>,
    fingerprints: Vec<u64>,
}

impl FleetMixed {
    /// Inputs and oracle for `seed`; artifacts go under `dir`.
    ///
    /// # Errors
    ///
    /// Model, artifact, codec or oracle failures.
    pub fn prepare(seed: u64, dir: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("work dir: {e}"))?;
        let mut engines = Vec::new();
        let mut graphs = Vec::new();
        let mut fingerprints = Vec::new();
        for (m, name) in FLEET_MODELS.iter().enumerate() {
            let path = dir.join(format!("{name}.sca"));
            let lowered = fleet_lowered(m)?;
            fingerprints.push(scales_io::fingerprint(&scales_io::artifact_to_bytes(
                &lowered,
            )));
            scales_io::save_artifact(&path, &lowered).map_err(|e| format!("save artifact: {e}"))?;
            // The oracle serves the same artifact bytes the router loads.
            engines.push(
                Engine::builder()
                    .model_path(&path)
                    .precision(Precision::Deployed)
                    .build()
                    .map_err(|e| format!("oracle engine: {e}"))?,
            );
            graphs
                .push(scales_io::load_artifact(&path).map_err(|e| format!("load artifact: {e}"))?);
        }
        let items = (0..FLEET_POOL)
            .map(|i| {
                let model = i % 2;
                let format = if i % 4 < 2 {
                    WireFormat::Ppm
                } else {
                    WireFormat::Png
                };
                let (h, w) = FLEET_SHAPES[(i / 4) % FLEET_SHAPES.len()];
                let body = codec::encode_image(&scene(h, w, item_seed(seed, i)), format)
                    .map_err(|e| format!("encode: {e}"))?;
                let expected = http_oracle(&engines[model], &body)?;
                Ok(HttpItem {
                    path: format!("/v1/models/{}/upscale", FLEET_MODELS[model]),
                    content_type: format.content_type(),
                    headers: vec![
                        (
                            "X-Scales-Tenant",
                            FLEET_TENANTS[i % FLEET_TENANTS.len()].to_string(),
                        ),
                        ("X-Scales-Deadline-Ms", FLEET_DEADLINE_MS.to_string()),
                    ],
                    body,
                    expected,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            items,
            dir: dir.to_path_buf(),
            graphs,
            fingerprints,
        })
    }
}

struct FleetStack<'a> {
    server: HttpServer,
    router: ModelRouter,
    items: &'a [HttpItem],
}

impl Stack for FleetStack<'_> {
    fn lanes(&self) -> Result<Vec<Box<dyn Lane + Send + '_>>, String> {
        (0..LANES)
            .map(|_| {
                HttpLane::open(self.server.addr(), self.items)
                    .map(|l| Box::new(l) as Box<dyn Lane + Send>)
                    .map_err(|e| format!("connect: {e}"))
            })
            .collect()
    }
    fn stats(&self) -> RuntimeStats {
        self.router.stats().merged_runtime()
    }
    fn workers(&self) -> usize {
        self.router
            .list()
            .iter()
            .filter_map(|m| m.runtime.as_ref())
            .map(|r| r.workers)
            .sum()
    }
    fn traces(&self) -> Vec<RequestTrace> {
        self.server.traces()
    }
    fn control(&self, phase: &Phase, start: Instant, end: Instant) -> Vec<Duration> {
        let mut took = Vec::new();
        if phase.name == "light" {
            return took;
        }
        let mut next = start + RELOAD_PERIOD / 2;
        let mut turn = 0;
        while next < end {
            let now = Instant::now();
            if now < next {
                std::thread::sleep(next - now);
            }
            let t = Instant::now();
            // A failed swap leaves the old version serving; the requests
            // still verify, and the missing reload shows in the count.
            if self
                .router
                .reload(FLEET_MODELS[turn % FLEET_MODELS.len()])
                .is_ok()
            {
                took.push(t.elapsed());
            }
            turn += 1;
            next += RELOAD_PERIOD;
        }
        took
    }
    fn resident_bytes(&self) -> usize {
        self.router.resident_bytes()
    }
    fn shutdown(self: Box<Self>) -> RuntimeStats {
        self.server.shutdown()
    }
}

impl Workload for FleetMixed {
    fn phases(&self, seconds: f64) -> Vec<Phase> {
        three_phases(seconds, 100.0, 280.0, 2)
    }
    fn slo(&self) -> Duration {
        Duration::from_millis(50)
    }
    fn pool_len(&self) -> usize {
        self.items.len()
    }
    fn build(&self, profile_ops: bool) -> Result<Box<dyn Stack + '_>, String> {
        // Deploying is part of set-up: lower, write the artifacts, load
        // them into the fleet.
        let router = ModelRouter::new(RouterConfig {
            memory_budget: None,
            runtime: runtime_config(profile_ops, 8),
            ..RouterConfig::default()
        })
        .map_err(|e| format!("router: {e}"))?;
        for (m, name) in FLEET_MODELS.iter().enumerate() {
            let path = self.dir.join(format!("{name}.sca"));
            scales_io::save_artifact(&path, &fleet_lowered(m)?)
                .map_err(|e| format!("save artifact: {e}"))?;
            let stats = router
                .register_path(name, &path)
                .map_err(|e| format!("register: {e}"))?;
            if stats.fingerprint != self.fingerprints[m] {
                return Err(format!("{name}: the artifact differs from the oracle's"));
            }
        }
        let server = HttpServer::bind_router("127.0.0.1:0", router.clone(), http_config())
            .map_err(|e| format!("bind: {e}"))?;
        Ok(Box::new(FleetStack {
            server,
            router,
            items: &self.items,
        }))
    }
    fn graphs(&self) -> Vec<(&DeployedNetwork, usize, usize)> {
        self.graphs
            .iter()
            .map(|g| (g, FLEET_SHAPES[0].0, FLEET_SHAPES[0].1))
            .collect()
    }
}

impl Drop for FleetMixed {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
