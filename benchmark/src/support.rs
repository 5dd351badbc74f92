//! What every workload shares: generated suites, the `modemerge`
//! executable, scratch directories, process memory and the run result.

use crate::host::HostSpeed;
use crate::stats::{median, percentile};
use crate::trace::Span;
use modemerge_core::eco::Fnv64;
use modemerge_core::json::Json;
use modemerge_core::merge::MergeAllOutcome;
use modemerge_netlist::text;
use modemerge_workload::{generate_suite, DesignSpec, SuiteSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Report per-layer metrics (and write the trace) instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Tiny sizes for the self-test.
    pub smoke: bool,
}

/// A generated suite in the text forms the program reads.
#[derive(Debug, Clone)]
pub struct TextSuite {
    /// Netlist in the native text format.
    pub netlist: String,
    /// `(mode name, SDC text)` in suite order.
    pub modes: Vec<(String, String)>,
    /// Clique count the generator builds in (one per mode family).
    pub expected_merged: usize,
    /// The design's parameters (bank and register counts for edits).
    pub design: DesignSpec,
}

/// `SuiteSpec::scale(cells, modes, seed)` rendered to text.
pub fn text_suite(cells: usize, modes: usize, seed: u64) -> TextSuite {
    let spec = SuiteSpec::scale(cells, modes, seed);
    let suite = generate_suite(&spec);
    TextSuite {
        netlist: text::write(&suite.netlist),
        modes: suite
            .modes
            .iter()
            .map(|(name, sdc)| (name.clone(), sdc.to_text()))
            .collect(),
        expected_merged: suite.expected_merged,
        design: spec.design,
    }
}

/// `(name, SDC text)` of every merged mode, in output order.
pub fn merged_texts(outcome: &MergeAllOutcome) -> Vec<(String, String)> {
    outcome
        .merged
        .iter()
        .map(|m| (m.name.clone(), m.sdc.to_text()))
        .collect()
}

/// FNV-1a digest of merged output (names and texts).
pub fn digest(texts: &[(String, String)]) -> u64 {
    let mut h = Fnv64::new();
    for (name, text) in texts {
        h.write(name.as_bytes());
        h.write(&[0]);
        h.write(text.as_bytes());
        h.write(&[0]);
    }
    h.finish()
}

/// The target directory this executable was built into.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} has no target directory", exe.display()))
}

/// The repository checkout this benchmark belongs to.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Builds (if stale) and locates the shipped `modemerge` executable,
/// in the same target directory as this benchmark.
pub fn modemerge_exe() -> Result<PathBuf, String> {
    let target = target_dir()?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "-q",
            "-p",
            "modemerge-cli",
        ])
        .arg("--target-dir")
        .arg(&target)
        .current_dir(repo_root())
        .output()
        .map_err(|e| format!("cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "building modemerge failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(target.join("release").join("modemerge"))
}

/// A scratch directory inside the target directory, removed on drop.
#[derive(Debug)]
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates `<target>/benchmark-work/<label>-<pid>`.
    pub fn new(label: &str) -> Result<Self, String> {
        let dir = target_dir()?
            .join("benchmark-work")
            .join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// Writes the suite as `design.nl` plus one `<mode>.sdc` per mode
    /// and returns the `(name, path)` of every mode.
    pub fn write_suite(&self, suite: &TextSuite) -> Result<Vec<(String, PathBuf)>, String> {
        let write = |path: &Path, text: &str| {
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
        };
        write(&self.netlist_path(), &suite.netlist)?;
        suite
            .modes
            .iter()
            .map(|(name, sdc)| {
                let path = self.0.join(format!("{name}.sdc"));
                write(&path, sdc)?;
                Ok((name.clone(), path))
            })
            .collect()
    }

    /// Path of the written netlist.
    pub fn netlist_path(&self) -> PathBuf {
        self.0.join("design.nl")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A spawned program that is killed and reaped if it is still running
/// when dropped, so no run leaves a process behind.
#[derive(Debug)]
pub struct Spawned(pub Child);

impl Spawned {
    /// Waits up to `timeout` for the program to exit on its own, then
    /// kills it.
    pub fn wait_exit(&mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.0.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("exited with {status}")),
                None if Instant::now() > deadline => {
                    self.kill();
                    return Err(format!("did not exit within {timeout:?}"));
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Kills and reaps the program (no-op once it has exited).
    pub fn kill(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Peak resident set size (`VmHWM`) of process `pid`, or of this
/// process for `None`, in MiB; 0 when unreadable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metric values of one run.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Counts attempts and failures; keeps the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// Messages of the first failures.
    pub errors: Vec<String>,
}

impl Tally {
    /// Records one attempt; `Err` counts it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(message);
            }
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Attempts and failures.
    pub tally: Tally,
    /// End-to-end metrics.
    pub end_to_end: Metrics,
    /// Per-layer metrics.
    pub layers: Metrics,
    /// Recorded spans (written out by traced runs).
    pub spans: Vec<Span>,
}

/// A timed interval: when it started, and its length.
pub type Timed = (Instant, f64);

impl RunResult {
    /// A result holding the metrics every workload reports, from its
    /// operation latencies (ms), the length of its measured window, its
    /// set-up times (s), its peak memory and the host's probes.
    ///
    /// The end-to-end timings are medians of times scaled to the
    /// reference host's usual speed (see [`HostSpeed`]). The `op` layer
    /// reports the raw wall-time median, p90 and throughput, like every
    /// other layer.
    pub fn measured(
        latencies_ms: &[Timed],
        measured_s: f64,
        setups_s: &[Timed],
        rss_mb: f64,
        host: &HostSpeed,
    ) -> Self {
        let scaled = |timed: &[Timed]| -> Vec<f64> {
            timed.iter().map(|(at, t)| t * host.scale(*at)).collect()
        };
        let raw: Vec<f64> = latencies_ms.iter().map(|(_, ms)| *ms).collect();
        let ops_per_s = if measured_s > 0.0 {
            raw.len() as f64 / measured_s
        } else {
            0.0
        };
        Self {
            end_to_end: Metrics::from([
                ("p50_ms", median(&scaled(latencies_ms))),
                ("setup_s", median(&scaled(setups_s))),
                ("peak_rss_mb", rss_mb),
            ]),
            layers: Metrics::from([
                ("op.p50_ms", median(&raw)),
                ("op.p90_ms", percentile(&raw, 90.0)),
                ("op.ops_per_s", ops_per_s),
                ("host.probe_ms", host.median_ms()),
            ]),
            ..Default::default()
        }
    }
}

/// The number at `path` inside `v`; NaN (reported as `null`) when a
/// counter the program used to export is missing.
pub fn json_num(v: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |node, key| node.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// The number after the first `"key":` in compact JSON the program
/// wrote. Large replies are scanned rather than parsed: the in-tree
/// parser re-validates the rest of its input for every string
/// character.
pub fn scan_num(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Every `"key":"value"` string value in compact JSON the program wrote
/// (values without escaped quotes, such as rule codes and URIs).
pub fn scan_strs<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let pattern = format!("\"{key}\":\"");
    json.match_indices(&pattern)
        .filter_map(|(at, _)| {
            let rest = &json[at + pattern.len()..];
            rest.find('"').map(|end| &rest[..end])
        })
        .collect()
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Replaces the value word right after `command` on the first line of
/// `lines` that starts with `command` and contains `marker`. Returns
/// `false` when no line matches.
pub fn set_value(lines: &mut [String], command: &str, marker: &str, value: f64) -> bool {
    let Some(line) = lines
        .iter_mut()
        .find(|l| l.starts_with(command) && l.contains(marker))
    else {
        return false;
    };
    let mut words: Vec<&str> = line.split(' ').collect();
    let formatted = format!("{value:.6}");
    // `set_clock_uncertainty -setup V …` keeps its flag before the value.
    let at = words
        .iter()
        .skip(1)
        .position(|w| w.parse::<f64>().is_ok())
        .map_or(1, |p| p + 1);
    if at >= words.len() {
        return false;
    }
    words[at] = &formatted;
    *line = words.join(" ");
    true
}

/// Joins lines back into SDC text.
pub fn join_lines(lines: &[String]) -> String {
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

/// Splits SDC text into owned lines.
pub fn split_lines(text: &str) -> Vec<String> {
    text.lines().map(str::to_owned).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{POWER, REFERENCE_MS};

    #[test]
    fn set_value_edits_the_numeric_word() {
        let mut lines = split_lines(
            "set_clock_latency 1.9600 [get_clocks mclk1]\n\
             set_clock_uncertainty -setup 0.2 [get_clocks mclk1]\n\
             set_input_delay 1.5 -clock [get_clocks mclk0] [get_ports din3]\n",
        );
        assert!(set_value(&mut lines, "set_clock_latency", "mclk1", 2.0));
        assert!(set_value(
            &mut lines,
            "set_clock_uncertainty",
            "mclk1",
            0.25
        ));
        assert!(set_value(&mut lines, "set_input_delay", "din3]", 1.55));
        assert!(!set_value(&mut lines, "set_output_delay", "", 1.0));
        assert_eq!(
            join_lines(&lines),
            "set_clock_latency 2.000000 [get_clocks mclk1]\n\
             set_clock_uncertainty -setup 0.250000 [get_clocks mclk1]\n\
             set_input_delay 1.550000 -clock [get_clocks mclk0] [get_ports din3]\n"
        );
    }

    #[test]
    fn metrics_from_samples() {
        let now = Instant::now();
        let timed = |v: &[f64]| v.iter().map(|&x| (now, x)).collect::<Vec<_>>();
        let ops = timed(&[5.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0]);
        let setups = timed(&[0.5, 0.7, 0.6, 0.9, 0.8]);
        // Without probes, times are not scaled.
        let r = RunResult::measured(&ops, 4.0, &setups, 12.5, &HostSpeed::default());
        let e = &r.end_to_end;
        assert_eq!(
            (e["p50_ms"], e["setup_s"], e["peak_rss_mb"]),
            (4.5, 0.7, 12.5)
        );
        let l = &r.layers;
        assert_eq!(
            (l["op.p50_ms"], l["op.p90_ms"], l["op.ops_per_s"]),
            (4.5, 8.0, 2.0)
        );
        // A probe at four times the reference time shrinks the end-to-end
        // times by the same factor, not the layer times.
        let host = HostSpeed::from_probes(now, &[4.0 * REFERENCE_MS]);
        let r = RunResult::measured(&ops, 4.0, &setups, 12.5, &host);
        let e = &r.end_to_end;
        let f = 0.25f64.powf(POWER);
        assert!((e["p50_ms"] - 4.5 * f).abs() < 1e-12);
        assert!((e["setup_s"] - 0.7 * f).abs() < 1e-12);
        assert_eq!(r.layers["op.p50_ms"], 4.5);
        assert_eq!(r.layers["host.probe_ms"], 4.0 * REFERENCE_MS);
    }

    #[test]
    fn scans_fields_of_compact_json() {
        let json = r#"{"input_modes":16,"merged_modes":4,"r":[{"code":"ML-A","m":"x"},{"code":"SDC-B"}],"t":-1.5e-3}"#;
        assert_eq!(scan_num(json, "input_modes"), Some(16.0));
        assert_eq!(scan_num(json, "merged_modes"), Some(4.0));
        assert_eq!(scan_num(json, "t"), Some(-1.5e-3));
        assert_eq!(scan_num(json, "missing"), None);
        assert_eq!(scan_strs(json, "code"), ["ML-A", "SDC-B"]);
        assert!(scan_strs(json, "missing").is_empty());
    }

    #[test]
    fn tally_counts_and_keeps_messages() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("boom".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.errors, ["boom"]);
    }

    #[test]
    fn digest_separates_names_from_texts() {
        let a = vec![("ab".to_owned(), "c".to_owned())];
        let b = vec![("a".to_owned(), "bc".to_owned())];
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&a.clone()));
    }
}
