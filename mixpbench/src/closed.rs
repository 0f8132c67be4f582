//! The serve probe's client side: an in-process daemon and two
//! persistent connections running a closed submit → subscribe → status
//! loop.

use crate::expected::{Expected, Outcome};
use crate::workloads::ServeCampaign;
use mixp_harness::checkpoint::compact;
use mixp_harness::json::Json;
use mixp_serve::{Client, DaemonConfig, DaemonHandle, ServeConfig, SubmitOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections of the closed loop.
pub const CONNECTIONS: usize = 2;

/// A running daemon with its connected clients.
pub struct Rig {
    daemon: Option<DaemonHandle>,
    clients: Vec<Client>,
    dir: PathBuf,
}

impl Rig {
    /// Starts a daemon with `workers` pool workers and its state in a fresh
    /// `dir`, and connects [`CONNECTIONS`] clients.
    ///
    /// # Errors
    ///
    /// Any I/O error of the daemon start or the connects.
    pub fn start(dir: &Path, workers: usize) -> std::io::Result<Rig> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        let socket = dir.join("sock");
        let daemon = DaemonHandle::start(DaemonConfig {
            socket: socket.clone(),
            state_dir: dir.join("state"),
            serve: ServeConfig {
                workers,
                queue_depth: 64,
                // Quotas never bind: the loop measures service, not refusal.
                default_quota: usize::MAX / 2,
                quotas: Vec::new(),
            },
        })?;
        let clients = (0..CONNECTIONS)
            .map(|_| Client::connect_within(&socket, Duration::from_secs(10)))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Rig {
            daemon: Some(daemon),
            clients,
            dir: dir.to_path_buf(),
        })
    }

    /// Runs `campaigns` through the closed loop, one campaign in flight
    /// per connection. Returns one sample per campaign, in campaign order.
    pub fn run(&mut self, campaigns: &[ServeCampaign], expected: &Expected) -> Vec<Sample> {
        let next = AtomicUsize::new(0);
        let samples: Mutex<Vec<(usize, Sample)>> = Mutex::new(Vec::with_capacity(campaigns.len()));
        std::thread::scope(|scope| {
            for client in &mut self.clients {
                let (next, samples) = (&next, &samples);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(campaign) = campaigns.get(i) else {
                        return;
                    };
                    let sample = one_campaign(client, campaign, expected);
                    samples.lock().expect("samples lock").push((i, sample));
                });
            }
        });
        let mut samples = samples.into_inner().expect("samples lock");
        samples.sort_unstable_by_key(|(i, _)| *i);
        samples.into_iter().map(|(_, sample)| sample).collect()
    }

    /// Disconnects the clients and stops the daemon.
    pub fn stop(mut self) {
        self.clients.clear();
        if let Some(daemon) = self.daemon.take() {
            daemon.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one campaign of the closed loop measured.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Submit send to done trailer, ms.
    pub campaign_ms: f64,
    /// Submit send to submit reply, ms.
    pub submit_ms: f64,
    /// Status send to status reply, ms.
    pub status_ms: f64,
    /// Records streamed to the subscriber.
    pub records: usize,
    /// Size of the compact status reply, bytes.
    pub status_bytes: usize,
    /// Whether every cell's outcome matched the expected file.
    pub ok: bool,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn one_campaign(client: &mut Client, campaign: &ServeCampaign, expected: &Expected) -> Sample {
    let mut sample = Sample::default();
    let start = Instant::now();
    let Ok(reply) = client.submit(
        campaign.tenant,
        Some(&campaign.key),
        &campaign.jobs,
        &SubmitOptions::default(),
    ) else {
        return sample;
    };
    sample.submit_ms = ms(start);
    let accepted = reply.get("ok") == Some(&Json::Bool(true))
        && reply.get("duplicate") == Some(&Json::Bool(false));
    let Some(id) = reply.get("id").and_then(Json::as_f64).filter(|_| accepted) else {
        return sample;
    };
    let mut records = 0usize;
    let Ok(trailer) = client.subscribe(id as u64, |_| records += 1) else {
        return sample;
    };
    sample.campaign_ms = ms(start);
    sample.records = records;
    let status_start = Instant::now();
    let Ok(status) = client.status(id as u64) else {
        return sample;
    };
    sample.status_ms = ms(status_start);
    sample.status_bytes = compact(&status).len();
    let done = trailer.get("state").and_then(Json::as_str) == Some("done");
    let cells = status.get("cells").and_then(Json::as_array).unwrap_or(&[]);
    let mut all_match = done && cells.len() == campaign.jobs.len();
    for (job, cell) in campaign.jobs.iter().zip(cells) {
        let outcome = cell_outcome(cell);
        all_match &= outcome.is_some() && expected.get(job) == outcome.as_ref();
    }
    sample.ok = all_match;
    sample
}

/// The checked bits of one status-reply cell.
fn cell_outcome(cell: &Json) -> Option<Outcome> {
    if cell.get("state").and_then(Json::as_str) != Some("done") {
        return None;
    }
    let best = cell.get("best")?;
    let bits = |k: &str| best.get(k).and_then(Json::as_f64).map(f64::to_bits);
    Some(Outcome {
        evaluated: cell.get("evaluated")?.as_f64()? as usize,
        dnf: matches!(cell.get("dnf"), Some(Json::Bool(true))),
        speedup_bits: bits("speedup"),
        quality_bits: bits("quality"),
    })
}
