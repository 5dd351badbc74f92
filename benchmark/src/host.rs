//! How fast the host runs, measured with a fixed probe between
//! operations.
//!
//! The reference host is a 2-vCPU VM on a shared machine. In phases
//! lasting from under a second to many minutes, everything on it runs
//! up to twice as slow, user CPU time included, with no steal time
//! reported. A run's raw median then depends on how much of the run
//! fell into slow phases.
//!
//! The probe is a fixed piece of work that owes nothing to the program:
//! it formats and hashes strings into a fresh map, sorts the keys,
//! chases pointers through a 4 MiB table and validates a 256 KiB text as
//! UTF-8. That is allocation, hashing, cache misses and byte scanning,
//! the kind of work the program's parsers, binder, merger and JSON
//! front end do, and it slows in the same phases. It runs on one
//! thread: the same work on both vCPUs at once took two to three times
//! as long as on one, and that mutual slowdown moved on its own,
//! unlike the workloads. It runs in a probe process of its own that
//! lives as long as the workload, so its memory never counts towards a
//! workload's peak, and only while the program is idle, at most every
//! [`PROBE_EVERY`].
//!
//! A time is scaled by [`REFERENCE_MS`] over the probe time around it,
//! raised to [`POWER`]: how closely the workloads' times follow the
//! probe's. Over 46 minutes of runs of all four workloads, with run
//! median probe times between 15 and 35 ms, the run medians of
//! operation times followed the run's median probe time to a power
//! between 0.77 and 0.89, and those of set-up times to a power between
//! 0.59 and 0.93.

use crate::stats::median;
use crate::support::Spawned;
use crate::trace::Tracer;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::io::{BufRead, BufReader, Write};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Probe time on the reference host outside its slow phases.
pub const REFERENCE_MS: f64 = 15.0;
/// Power of the scale.
pub const POWER: f64 = 0.85;
/// Least time between two probes.
const PROBE_EVERY: Duration = Duration::from_millis(500);
/// A time is scaled by the median of this many probes nearest to it,
/// so one disturbed probe does not move it.
const NEAREST: usize = 3;
/// Prefix of the probe process's report lines on its standard output.
const CHILD_PREFIX: &str = "PROBE_MS ";
/// Trace lane of the probe spans.
const PROBE_LANE: u64 = 99;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// SDC-like lines, with one non-ASCII character each, up to 256 KiB.
fn sample_text() -> String {
    let mut text = String::new();
    for i in 0u64.. {
        if text.len() >= 256 * 1024 {
            break;
        }
        text += &format!(
            "set_input_delay {}.{} -clock [get_clocks mclk{}] [get_ports din{}] # \u{2192}\n",
            i % 7,
            i % 1000,
            i % 5,
            i % 64
        );
    }
    text
}

/// The probe's fixed work. Its result only keeps the optimizer from
/// dropping the work.
fn kernel(text: &[u8]) -> u64 {
    const KEYS: u64 = 25_000;
    const SLOTS: u64 = 1 << 20;
    const STEPS: usize = 60_000;
    const SCANS: usize = 40;
    // A fixed hasher: the same work in every run.
    let mut map: HashMap<String, Vec<u32>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x9e37_79b9_7f4a_7c15;
    for i in 0..KEYS {
        let key = format!("u{}/n{}", xorshift(&mut x) % KEYS, i % 97);
        map.entry(key).or_default().push(i as u32);
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort_unstable();
    let mut sum: u64 = keys.iter().step_by(3).map(|k| map[*k].len() as u64).sum();
    // A full-period linear congruential walk: no stride a prefetcher
    // could follow.
    let table: Vec<u32> = (0..SLOTS)
        .map(|i| ((i * 1_103_515_245 + 12_345) % SLOTS) as u32)
        .collect();
    let mut at = 0usize;
    for _ in 0..STEPS {
        at = table[at] as usize;
        sum += at as u64;
    }
    for _ in 0..SCANS {
        let valid = std::str::from_utf8(std::hint::black_box(text));
        sum += valid.map_or(0, |s| s.len() as u64);
    }
    sum
}

/// The kernel once; wall time in milliseconds.
fn timed_kernel(text: &[u8]) -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel(text));
    start.elapsed().as_secs_f64() * 1e3
}

/// Probe-process entry: one probe at start, then one per line read from
/// standard input until it closes, each reported as a line after
/// [`CHILD_PREFIX`].
pub fn child_main() -> Result<(), String> {
    let text = sample_text();
    let mut out = std::io::stdout().lock();
    for line in std::iter::once(Ok(String::new())).chain(std::io::stdin().lines()) {
        line.map_err(|e| format!("probe input: {e}"))?;
        writeln!(out, "{CHILD_PREFIX}{}", timed_kernel(text.as_bytes()))
            .and_then(|()| out.flush())
            .map_err(|e| format!("probe output: {e}"))?;
    }
    Ok(())
}

/// The running probe process.
#[derive(Debug)]
struct ProbeProcess {
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    // Dropped last: killed and reaped if it has not exited by then.
    _process: Spawned,
}

impl ProbeProcess {
    /// Starts the process and waits for its first probe, which only
    /// warms up its memory.
    fn spawn() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let mut process = Spawned(
            Command::new(exe)
                .args(["--child", "probe"])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn probe: {e}"))?,
        );
        let stdin = process.0.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(process.0.stdout.take().expect("stdout is piped"));
        let mut probe = Self {
            stdin,
            stdout,
            _process: process,
        };
        probe.report()?;
        Ok(probe)
    }

    /// The next reported probe time.
    fn report(&mut self) -> Result<f64, String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("probe report: {e}"))?;
        line.trim_end()
            .strip_prefix(CHILD_PREFIX)
            .and_then(|ms| ms.parse().ok())
            .ok_or_else(|| format!("probe report `{}`", line.trim_end()))
    }
}

/// The probe times of one run, each with the moment it started.
#[derive(Debug, Default)]
pub struct HostSpeed {
    probes: Vec<(Instant, f64)>,
    process: Option<ProbeProcess>,
}

impl HostSpeed {
    /// Starts the probe process.
    pub fn start() -> Result<Self, String> {
        Ok(Self {
            probes: Vec::new(),
            process: Some(ProbeProcess::spawn()?),
        })
    }

    /// Probes now. Call it only while the program is idle.
    pub fn probe(&mut self) -> Result<(), String> {
        let process = self.process.as_mut().ok_or("the probe was not started")?;
        let start = Instant::now();
        writeln!(process.stdin)
            .and_then(|()| process.stdin.flush())
            .map_err(|e| format!("probe request: {e}"))?;
        let ms = process.report()?;
        self.probes.push((start, ms));
        Ok(())
    }

    /// Probes when [`PROBE_EVERY`] has passed since the last probe. Call
    /// it only while the program is idle.
    pub fn probe_if_due(&mut self) -> Result<(), String> {
        match self.probes.last() {
            Some((at, _)) if at.elapsed() < PROBE_EVERY => Ok(()),
            _ => self.probe(),
        }
    }

    /// The factor for a time measured from `at`: [`REFERENCE_MS`] over
    /// the median of the [`NEAREST`] probes started nearest to `at`,
    /// before or after it, to the power [`POWER`]; 1 without probes.
    pub fn scale(&self, at: Instant) -> f64 {
        let mut by_distance: Vec<(Duration, f64)> = self
            .probes
            .iter()
            .map(|&(t, ms)| (t.max(at) - t.min(at), ms))
            .collect();
        by_distance.sort_by_key(|&(d, _)| d);
        let nearest: Vec<f64> = by_distance
            .iter()
            .take(NEAREST)
            .map(|&(_, ms)| ms)
            .collect();
        if nearest.is_empty() {
            1.0
        } else {
            (REFERENCE_MS / median(&nearest)).powf(POWER)
        }
    }

    /// Median probe time of the run.
    pub fn median_ms(&self) -> f64 {
        median(&self.probes.iter().map(|(_, ms)| *ms).collect::<Vec<_>>())
    }

    /// Records every probe as a `host.probe` span, numbered in order, on
    /// a lane of its own.
    pub fn trace(&self, t: &mut Tracer) {
        for (&(at, ms), n) in self.probes.iter().zip(0..) {
            let end = at + Duration::from_secs_f64(ms / 1e3);
            t.record("host.probe", n, PROBE_LANE, at, end);
        }
    }

    /// Probe times `ms`, one a second from `start`.
    #[cfg(test)]
    pub fn from_probes(start: Instant, ms: &[f64]) -> Self {
        Self {
            probes: ms
                .iter()
                .zip(0..)
                .map(|(&m, i)| (start + Duration::from_secs(i), m))
                .collect(),
            process: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_median_of_the_nearest_probes() {
        let t0 = Instant::now();
        let at = |s: f64| t0 + Duration::from_secs_f64(s);
        let f = |ms: f64| (REFERENCE_MS / ms).powf(POWER);
        let h = HostSpeed::from_probes(t0, &[10.0, 20.0, 30.0, 40.0, 50.0]);
        // Probes 0, 1, 2; then 1, 2, 3 around the middle; then 2, 3, 4.
        assert_eq!(h.scale(at(0.2)), f(20.0));
        assert_eq!(h.scale(at(2.0)), f(30.0));
        assert_eq!(h.scale(at(9.0)), f(40.0));
        assert_eq!(h.median_ms(), 30.0);
        // One disturbed probe does not move the scale.
        let disturbed = HostSpeed::from_probes(t0, &[10.0, 10.0, 90.0, 10.0]);
        assert_eq!(disturbed.scale(at(2.0)), f(10.0));
        // A probe slower than the reference shrinks a time, a faster one
        // grows it.
        assert!(f(2.0 * REFERENCE_MS) < 1.0 && f(0.5 * REFERENCE_MS) > 1.0);
        assert_eq!(HostSpeed::default().scale(t0), 1.0);
    }

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let text = sample_text();
        assert!(text.len() >= 256 * 1024);
        assert_eq!(kernel(text.as_bytes()), kernel(text.as_bytes()));
    }

    #[test]
    fn probing_needs_the_process() {
        assert!(HostSpeed::default().probe().is_err());
    }
}
