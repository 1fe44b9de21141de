//! The CI bench-regression gate.
//!
//! Compares a fresh `BENCH_ESTIMATES` run (see `vendor/criterion`) against a
//! committed baseline snapshot and fails — exit code 1 — when any *gated*
//! benchmark regressed beyond the threshold.  By default the gate covers the
//! hot-path bench groups the repository's perf trajectory is pinned on
//! (`oracle/*`, `hom_scaling/*`, and the Table 1 deciders
//! `table1_cq/*`, `table1_ucq/*` and `small_model/*`); everything else is
//! reported but never fatal.
//!
//! Usage:
//!
//! ```text
//! cargo run -p annot-bench --bin bench_gate -- <baseline.json> <current.json> \
//!     [--threshold 0.25] [--min-mean-ns 1000] [--all-groups] \
//!     [--propose-baseline <path>]
//! ```
//!
//! With `--propose-baseline`, a run in which some gated bench *improved*
//! beyond the noise envelope (mirror-image of the regression rule) writes
//! a proposed baseline to `<path>`: the element-wise minimum of the
//! committed baseline and the current run (see [`propose_baseline`]), in
//! the baseline format.  CI archives it as a workflow artifact, so
//! refreshing the committed baseline after a perf win is a file copy
//! instead of a manual capture — and never loosens the envelope for
//! benches that merely drifted slower inside the tolerance.
//!
//! Both files are the JSON-lines format the vendored criterion shim appends
//! under `BENCH_ESTIMATES=<path>`:
//!
//! ```text
//! {"group":"oracle/counterexample_search","bench":"bag/refutable",
//!  "mean_ns":6127.2,"stddev_ns":253.5,"samples":3}
//! ```
//!
//! A bench regresses when its current mean exceeds
//! `(1 + threshold) · baseline mean + 2·(baseline σ + current σ)`: the
//! relative threshold catches real slowdowns, the stddev slack keeps the
//! 3-sample quick-mode estimates from tripping the gate on noise, and
//! benches with a baseline mean below `--min-mean-ns` (sub-µs timings whose
//! quick-mode jitter dwarfs any signal) are skipped.  Benches present only
//! in the current run are reported but never fatal (new benches must be
//! allowed to land).  A **gated** bench present only in the baseline,
//! however, fails the gate: a renamed or deleted gated bench would
//! otherwise silently stop being compared — a hole in the perf trajectory —
//! so retiring one requires updating the committed baseline in the same
//! change ([`missing_gated`]).  Ungated baseline-only benches stay
//! non-fatal.

use std::collections::BTreeMap;
use std::fmt;
use std::process::ExitCode;

/// One benchmark estimate parsed from a `BENCH_ESTIMATES` line.
#[derive(Clone, Debug, PartialEq)]
pub struct Estimate {
    pub group: String,
    pub bench: String,
    pub mean_ns: f64,
    pub stddev_ns: f64,
    pub samples: u64,
}

/// Gate parameters (see the module docs for the comparison rule).
#[derive(Clone, Debug)]
pub struct GateConfig {
    /// Maximum tolerated relative slowdown (0.25 = +25 %).
    pub threshold: f64,
    /// Benches with a baseline mean below this are too jittery to gate.
    pub min_mean_ns: f64,
    /// Group prefixes the gate is fatal for; empty gates every group.
    pub gated_prefixes: Vec<String>,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            threshold: 0.25,
            min_mean_ns: 1000.0,
            gated_prefixes: vec![
                "oracle/".into(),
                "hom_scaling/".into(),
                "table1_cq/".into(),
                "table1_ucq/".into(),
                "small_model/".into(),
            ],
        }
    }
}

/// The verdict for one benchmark present in both snapshots.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Within the tolerated envelope (includes improvements).
    Ok,
    /// Slower than the envelope allows but not in a gated group.
    UngatedRegression,
    /// Slower than the envelope allows in a gated group: fails the job.
    GatedRegression,
    /// Baseline mean below the jitter floor; not compared.
    Skipped,
}

/// One row of the comparison report.
#[derive(Clone, Debug)]
pub struct Comparison {
    pub name: String,
    pub baseline_ns: f64,
    pub current_ns: f64,
    pub verdict: Verdict,
}

impl Comparison {
    fn ratio(&self) -> f64 {
        if self.baseline_ns > 0.0 {
            self.current_ns / self.baseline_ns
        } else {
            f64::INFINITY
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.verdict {
            Verdict::Ok => "ok      ",
            Verdict::UngatedRegression => "slower  ",
            Verdict::GatedRegression => "REGRESSED",
            Verdict::Skipped => "skipped ",
        };
        write!(
            f,
            "{tag} {:<60} {:>12.1} -> {:>12.1} ns  ({:+.1} %)",
            self.name,
            self.baseline_ns,
            self.current_ns,
            (self.ratio() - 1.0) * 100.0
        )
    }
}

/// Parses one `BENCH_ESTIMATES` JSON line.  The format is machine-written
/// with a fixed key set (see the vendored criterion shim), so a small
/// field-extracting parser is enough — no JSON dependency is available in
/// this offline workspace.
pub fn parse_line(line: &str) -> Option<Estimate> {
    let group = extract_string(line, "group")?;
    let bench = extract_string(line, "bench")?;
    let mean_ns = extract_number(line, "mean_ns")?;
    let stddev_ns = extract_number(line, "stddev_ns").unwrap_or(0.0);
    let samples = extract_number(line, "samples").unwrap_or(0.0) as u64;
    Some(Estimate {
        group,
        bench,
        mean_ns,
        stddev_ns,
        samples,
    })
}

/// Extracts `"key":"value"` (the shim never escapes quotes in names; a name
/// containing one would simply fail to parse and the line be ignored).
fn extract_string(line: &str, key: &str) -> Option<String> {
    let pattern = format!("\"{key}\":\"");
    let start = line.find(&pattern)? + pattern.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts `"key":<number>`.
fn extract_number(line: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\":");
    let start = line.find(&pattern)? + pattern.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses a whole `BENCH_ESTIMATES` file into `name ↦ estimate` (last write
/// wins, matching the append-only file the shim produces across re-runs).
pub fn parse_estimates(content: &str) -> BTreeMap<String, Estimate> {
    let mut map = BTreeMap::new();
    for line in content.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(e) = parse_line(line) {
            map.insert(format!("{}/{}", e.group, e.bench), e);
        }
    }
    map
}

/// Whether a benchmark (by its `group/bench` name) is gated.
fn is_gated(config: &GateConfig, name: &str) -> bool {
    config.gated_prefixes.is_empty() || config.gated_prefixes.iter().any(|p| name.starts_with(p))
}

/// The gated, above-floor baseline benches absent from the current run.
///
/// A missing gated bench is a silent gate hole — the comparison loop only
/// walks pairs present on both sides, so a renamed or deleted gated bench
/// would otherwise drop out of the trajectory without anyone noticing.  The
/// gate fails on these with an explicit message; retiring or renaming a
/// gated bench therefore requires committing the matching baseline update.
/// Sub-floor benches are exempt (they were never compared to begin with).
pub fn missing_gated(
    baseline: &BTreeMap<String, Estimate>,
    current: &BTreeMap<String, Estimate>,
    config: &GateConfig,
) -> Vec<String> {
    baseline
        .iter()
        .filter(|(name, base)| {
            !current.contains_key(*name)
                && is_gated(config, name)
                && base.mean_ns >= config.min_mean_ns
        })
        .map(|(name, _)| name.clone())
        .collect()
}

/// The gated benches whose current mean improved beyond the noise envelope:
/// `current + 2·(σ_base + σ_cur) < (1 − threshold) · baseline`, with the
/// same jitter floor as the regression rule.  A non-empty result is the
/// trigger for proposing a refreshed baseline.
pub fn significant_improvements(
    baseline: &BTreeMap<String, Estimate>,
    current: &BTreeMap<String, Estimate>,
    config: &GateConfig,
) -> Vec<String> {
    let mut improved = Vec::new();
    for (name, base) in baseline {
        let Some(cur) = current.get(name) else {
            continue;
        };
        if base.mean_ns < config.min_mean_ns || !is_gated(config, name) {
            continue;
        }
        let envelope = (1.0 - config.threshold) * base.mean_ns;
        if cur.mean_ns + 2.0 * (base.stddev_ns + cur.stddev_ns) < envelope {
            improved.push(name.clone());
        }
    }
    improved
}

/// The proposed refreshed baseline: element-wise minimum of the committed
/// baseline and the current run.  Improved benches adopt their new (lower)
/// means; benches that merely drifted slower *within* the tolerated envelope
/// keep their committed reference, so repeated refreshes cannot ratchet the
/// envelope upward.  Current-only benches (newly landed) enter as measured;
/// baseline-only benches (retired) are kept for the trajectory.
pub fn propose_baseline(
    baseline: &BTreeMap<String, Estimate>,
    current: &BTreeMap<String, Estimate>,
) -> BTreeMap<String, Estimate> {
    let mut proposed = baseline.clone();
    for (name, cur) in current {
        match proposed.get(name) {
            Some(base) if base.mean_ns <= cur.mean_ns => {}
            _ => {
                proposed.insert(name.clone(), cur.clone());
            }
        }
    }
    proposed
}

/// The gated benches whose *baseline* mean sits below the jitter floor.
/// The gate never compares these (`Verdict::Skipped`), so a floor-dwelling
/// gated bench is a silent allowlist entry: it looks protected but cannot
/// regress the gate.  Baseline proposals must surface each one explicitly —
/// the fix is to grow the bench's workload above the floor, or to un-gate
/// it deliberately.
pub fn sub_floor_gated(baseline: &BTreeMap<String, Estimate>, config: &GateConfig) -> Vec<String> {
    baseline
        .iter()
        .filter(|(name, base)| is_gated(config, name) && base.mean_ns < config.min_mean_ns)
        .map(|(name, _)| name.clone())
        .collect()
}

/// Renders a `--propose-baseline` artifact: one explicit note line per
/// silently-allowlisted gated bench (see [`sub_floor_gated`]) followed by
/// the refreshed estimates.  The note lines are not valid estimate lines
/// and the lenient line parser skips them, so the artifact still parses as
/// a baseline; they exist so a human adopting the proposal cannot miss the
/// hole.
pub fn render_proposal(
    proposed: &BTreeMap<String, Estimate>,
    sub_floor: &[String],
    config: &GateConfig,
) -> String {
    let mut out = String::new();
    for name in sub_floor {
        out.push_str(&format!(
            "# NOTE: gated bench {name} is below the {} ns jitter floor in this \
             baseline — it is never actually compared (silent allowlist); raise \
             its workload above the floor or un-gate it deliberately\n",
            config.min_mean_ns
        ));
    }
    out.push_str(&render_estimates(proposed));
    out
}

/// Serialises a snapshot back into the `BENCH_ESTIMATES` JSON-lines format
/// (the committed-baseline format), in name order.  Names containing `"`
/// or `\` are skipped: the field-extracting parser (like the shim that
/// writes the format) does not support escapes, so rendering them would
/// break the parse round-trip.
pub fn render_estimates(estimates: &BTreeMap<String, Estimate>) -> String {
    let unescapable = |s: &str| s.contains('"') || s.contains('\\');
    let mut out = String::new();
    for e in estimates.values() {
        if unescapable(&e.group) || unescapable(&e.bench) {
            continue;
        }
        out.push_str(&format!(
            "{{\"group\":\"{}\",\"bench\":\"{}\",\"mean_ns\":{},\"stddev_ns\":{},\"samples\":{}}}\n",
            e.group, e.bench, e.mean_ns, e.stddev_ns, e.samples
        ));
    }
    out
}

/// Compares two parsed snapshots under the gate rule; rows come back in
/// name order.
pub fn compare(
    baseline: &BTreeMap<String, Estimate>,
    current: &BTreeMap<String, Estimate>,
    config: &GateConfig,
) -> Vec<Comparison> {
    let mut rows = Vec::new();
    for (name, base) in baseline {
        let Some(cur) = current.get(name) else {
            continue;
        };
        let verdict = if base.mean_ns < config.min_mean_ns {
            Verdict::Skipped
        } else {
            let envelope =
                (1.0 + config.threshold) * base.mean_ns + 2.0 * (base.stddev_ns + cur.stddev_ns);
            if cur.mean_ns <= envelope {
                Verdict::Ok
            } else if is_gated(config, name) {
                Verdict::GatedRegression
            } else {
                Verdict::UngatedRegression
            }
        };
        rows.push(Comparison {
            name: name.clone(),
            baseline_ns: base.mean_ns,
            current_ns: cur.mean_ns,
            verdict,
        });
    }
    rows
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_gate <baseline.json> <current.json> \
         [--threshold 0.25] [--min-mean-ns 1000] [--all-groups] \
         [--propose-baseline <path>]"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut config = GateConfig::default();
    let mut propose_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                config.threshold = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    usage();
                });
            }
            "--min-mean-ns" => {
                i += 1;
                config.min_mean_ns =
                    args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        usage();
                    });
            }
            "--all-groups" => config.gated_prefixes.clear(),
            "--propose-baseline" => {
                i += 1;
                propose_path = Some(args.get(i).cloned().unwrap_or_else(|| {
                    usage();
                }));
            }
            flag if flag.starts_with("--") => usage(),
            file => files.push(file.to_string()),
        }
        i += 1;
    }
    if files.len() != 2 {
        usage();
    }
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_gate: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline = parse_estimates(&read(&files[0]));
    let current = parse_estimates(&read(&files[1]));
    if baseline.is_empty() || current.is_empty() {
        eprintln!(
            "bench_gate: no estimates parsed (baseline: {}, current: {})",
            baseline.len(),
            current.len()
        );
        return ExitCode::from(2);
    }

    let rows = compare(&baseline, &current, &config);
    let mut gated_failures = 0usize;
    let mut skipped = 0usize;
    for row in &rows {
        match row.verdict {
            Verdict::Skipped => skipped += 1,
            Verdict::Ok => {}
            _ => println!("{row}"),
        }
        if row.verdict == Verdict::GatedRegression {
            gated_failures += 1;
        }
    }
    let missing = missing_gated(&baseline, &current, &config);
    let only_base = baseline
        .keys()
        .filter(|k| !current.contains_key(*k))
        .count();
    let only_cur = current
        .keys()
        .filter(|k| !baseline.contains_key(*k))
        .count();
    println!(
        "bench_gate: {} compared ({} below the jitter floor), {} gated regression(s), \
         {} baseline-only ({} gated), {} new (threshold +{:.0} %, floor {} ns)",
        rows.len(),
        skipped,
        gated_failures,
        only_base,
        missing.len(),
        only_cur,
        config.threshold * 100.0,
        config.min_mean_ns
    );
    // Both failure classes are fatal; report them together so one run shows
    // the full verdict instead of revealing the second class on the re-run.
    for name in &missing {
        eprintln!(
            "bench_gate: MISSING gated bench {name} — present in the baseline but \
             absent from the current estimates (a renamed or deleted gated bench \
             silently leaves the perf trajectory; update the committed baseline \
             in the same change to retire it)"
        );
    }
    if gated_failures > 0 || !missing.is_empty() {
        eprintln!(
            "bench_gate: FAIL — {}{}{}",
            if gated_failures > 0 {
                "gated benches regressed beyond the threshold"
            } else {
                ""
            },
            if gated_failures > 0 && !missing.is_empty() {
                "; "
            } else {
                ""
            },
            if missing.is_empty() {
                ""
            } else {
                "gated benches disappeared from the estimates"
            }
        );
        return ExitCode::FAILURE;
    }
    if let Some(path) = propose_path {
        let improved = significant_improvements(&baseline, &current, &config);
        if improved.is_empty() {
            println!("bench_gate: no significant gated improvement — no baseline proposed");
        } else {
            for name in &improved {
                println!("bench_gate: significant improvement in {name}");
            }
            let proposed = propose_baseline(&baseline, &current);
            let sub_floor = sub_floor_gated(&baseline, &config);
            for name in &sub_floor {
                println!(
                    "bench_gate: note — gated bench {name} sits below the jitter \
                     floor and is never compared (flagged in the proposal)"
                );
            }
            if let Err(e) = std::fs::write(&path, render_proposal(&proposed, &sub_floor, &config)) {
                eprintln!("bench_gate: cannot write proposed baseline {path}: {e}");
                return ExitCode::from(2);
            }
            println!(
                "bench_gate: proposed refreshed baseline written to {path} \
                 ({} gated bench(es) improved significantly, {} sub-floor note(s))",
                improved.len(),
                sub_floor.len()
            );
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(group: &str, bench: &str, mean: f64, stddev: f64) -> String {
        format!(
            "{{\"group\":\"{group}\",\"bench\":\"{bench}\",\"mean_ns\":{mean},\
             \"stddev_ns\":{stddev},\"samples\":3}}"
        )
    }

    fn snapshot(entries: &[(&str, &str, f64, f64)]) -> BTreeMap<String, Estimate> {
        let content: Vec<String> = entries
            .iter()
            .map(|(g, b, m, s)| line(g, b, *m, *s))
            .collect();
        parse_estimates(&content.join("\n"))
    }

    #[test]
    fn parses_the_shim_format() {
        let e = parse_line(&line("oracle/search", "bag/refutable", 6127.2, 253.5)).unwrap();
        assert_eq!(e.group, "oracle/search");
        assert_eq!(e.bench, "bag/refutable");
        assert_eq!(e.mean_ns, 6127.2);
        assert_eq!(e.stddev_ns, 253.5);
        assert_eq!(e.samples, 3);
        // Junk lines are ignored, blank lines skipped, last write wins.
        let content = format!(
            "not json\n\n{}\n{}",
            line("g", "b", 1.0, 0.0),
            line("g", "b", 2.0, 0.0)
        );
        let map = parse_estimates(&content);
        assert_eq!(map.len(), 1);
        assert_eq!(map["g/b"].mean_ns, 2.0);
    }

    #[test]
    fn passes_on_the_committed_baseline_itself() {
        // Self-comparison (the degenerate "no change" run) never regresses.
        let base = snapshot(&[
            ("oracle/search", "a", 6000.0, 100.0),
            ("hom_scaling/exists_hom", "b", 2000.0, 50.0),
            ("table1_cq/C_hom", "c", 1800.0, 10.0),
        ]);
        let rows = compare(&base, &base, &GateConfig::default());
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn fails_on_a_synthetic_gated_regression() {
        // +100 % on an oracle bench: far outside the +25 % + noise envelope.
        let base = snapshot(&[("oracle/search", "a", 6000.0, 100.0)]);
        let cur = snapshot(&[("oracle/search", "a", 12000.0, 100.0)]);
        let rows = compare(&base, &cur, &GateConfig::default());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::GatedRegression);
    }

    #[test]
    fn gated_prefixes_match_literally() {
        // Prefix matching is literal, not path-segment aware: `"oracle/"`
        // gates the `oracle/*` groups but not a sibling group whose name
        // merely starts with `oracle`, which must be listed on its own to
        // be enforced.
        let (group, sibling) = ("oracle/deep_counterexample_search", "oracle_x/deep");
        let base = snapshot(&[
            (group, "lineage/cap8", 6_000_000.0, 100.0),
            (sibling, "lineage/cap8", 6_000_000.0, 100.0),
        ]);
        let cur = snapshot(&[
            (group, "lineage/cap8", 12_000_000.0, 100.0),
            (sibling, "lineage/cap8", 12_000_000.0, 100.0),
        ]);
        let verdicts = |config: &GateConfig| -> Vec<Verdict> {
            compare(&base, &cur, config)
                .into_iter()
                .map(|row| row.verdict)
                .collect()
        };
        assert_eq!(
            verdicts(&GateConfig::default()),
            [Verdict::GatedRegression, Verdict::UngatedRegression]
        );
        let sibling_listed = GateConfig {
            gated_prefixes: vec!["oracle/".into(), "oracle_x/".into()],
            ..GateConfig::default()
        };
        assert_eq!(
            verdicts(&sibling_listed),
            [Verdict::GatedRegression, Verdict::GatedRegression]
        );
    }

    #[test]
    fn table1_cq_group_is_gated() {
        for (group, bench) in [
            ("table1_cq/S1(small-model,T+)", "chain-3atoms"),
            ("table1_cq/C_hcov(covering)", "random-4atoms"),
        ] {
            let base = snapshot(&[(group, bench, 40_000.0, 1_000.0)]);
            let cur = snapshot(&[(group, bench, 80_000.0, 1_000.0)]);
            let rows = compare(&base, &cur, &GateConfig::default());
            assert_eq!(rows[0].verdict, Verdict::GatedRegression, "{group}");
        }
    }

    #[test]
    fn table1_ucq_and_small_model_groups_are_gated() {
        for (group, bench) in [
            ("table1_ucq/Cinf_sur(unique-surjection)", "2members-2atoms"),
            ("small_model/tropical_containment", "T+/chain-3atoms"),
        ] {
            let base = snapshot(&[(group, bench, 40_000.0, 1_000.0)]);
            let cur = snapshot(&[(group, bench, 80_000.0, 1_000.0)]);
            let rows = compare(&base, &cur, &GateConfig::default());
            assert_eq!(rows[0].verdict, Verdict::GatedRegression, "{group}");
        }
    }

    #[test]
    fn regressions_outside_gated_groups_do_not_fail() {
        let base = snapshot(&[("admissibility/is_cq_admissible", "c", 6000.0, 100.0)]);
        let cur = snapshot(&[("admissibility/is_cq_admissible", "c", 12000.0, 100.0)]);
        let rows = compare(&base, &cur, &GateConfig::default());
        assert_eq!(rows[0].verdict, Verdict::UngatedRegression);
        // ... unless the gate is widened to every group.
        let all = GateConfig {
            gated_prefixes: vec![],
            ..GateConfig::default()
        };
        assert_eq!(
            compare(&base, &cur, &all)[0].verdict,
            Verdict::GatedRegression
        );
    }

    #[test]
    fn noise_envelope_and_jitter_floor_absorb_small_wobble() {
        // +25 % exactly plus within-2σ wobble: not a regression.
        let base = snapshot(&[("oracle/search", "a", 1000.0, 100.0)]);
        let cur = snapshot(&[("oracle/search", "a", 1400.0, 100.0)]);
        assert_eq!(
            compare(&base, &cur, &GateConfig::default())[0].verdict,
            Verdict::Ok
        );
        // Sub-floor benches are skipped outright, however bad the ratio.
        let base = snapshot(&[("oracle/search", "tiny", 100.0, 5.0)]);
        let cur = snapshot(&[("oracle/search", "tiny", 10000.0, 5.0)]);
        assert_eq!(
            compare(&base, &cur, &GateConfig::default())[0].verdict,
            Verdict::Skipped
        );
    }

    #[test]
    fn benches_on_one_side_only_are_not_compared() {
        let base = snapshot(&[("oracle/search", "retired", 6000.0, 100.0)]);
        let cur = snapshot(&[("oracle/search", "landed", 6000.0, 100.0)]);
        assert!(compare(&base, &cur, &GateConfig::default()).is_empty());
    }

    #[test]
    fn missing_gated_benches_are_detected() {
        let base = snapshot(&[
            ("oracle/search", "vanished", 6000.0, 100.0),
            ("oracle/search", "still-there", 5000.0, 100.0),
            (
                "admissibility/is_cq_admissible",
                "ungated-vanished",
                6000.0,
                100.0,
            ),
            ("oracle/search", "subfloor-vanished", 100.0, 5.0),
        ]);
        let cur = snapshot(&[("oracle/search", "still-there", 5100.0, 100.0)]);
        // Only the gated, above-floor disappearance is fatal: ungated and
        // sub-floor benches were never part of the enforced trajectory.
        assert_eq!(
            missing_gated(&base, &cur, &GateConfig::default()),
            vec!["oracle/search/vanished".to_string()]
        );
        // Nothing is missing when the current run covers the baseline.
        assert!(missing_gated(&base, &base, &GateConfig::default()).is_empty());
        // New current-only benches never count as missing.
        let wider = snapshot(&[
            ("oracle/search", "vanished", 6000.0, 100.0),
            ("oracle/search", "still-there", 5000.0, 100.0),
            ("oracle/search", "landed", 900.0, 5.0),
        ]);
        assert_eq!(
            missing_gated(&base, &wider, &GateConfig::default()),
            Vec::<String>::new()
        );
        // Widening the gate to every group makes the ungated disappearance
        // fatal too.
        let all = GateConfig {
            gated_prefixes: vec![],
            ..GateConfig::default()
        };
        assert_eq!(
            missing_gated(&base, &cur, &all),
            vec![
                "admissibility/is_cq_admissible/ungated-vanished".to_string(),
                "oracle/search/vanished".to_string(),
            ]
        );
    }

    #[test]
    fn improvements_pass() {
        let base = snapshot(&[("oracle/search", "a", 6000.0, 100.0)]);
        let cur = snapshot(&[("oracle/search", "a", 2000.0, 50.0)]);
        assert_eq!(
            compare(&base, &cur, &GateConfig::default())[0].verdict,
            Verdict::Ok
        );
    }

    #[test]
    fn significant_improvements_are_detected() {
        // −50 % on a gated bench: far beyond the −25 % − 2σ envelope.
        let base = snapshot(&[
            ("oracle/search", "a", 6000.0, 100.0),
            ("admissibility/is_cq_admissible", "b", 6000.0, 100.0),
        ]);
        let cur = snapshot(&[
            ("oracle/search", "a", 3000.0, 50.0),
            ("admissibility/is_cq_admissible", "b", 3000.0, 50.0),
        ]);
        // Only the gated group proposes; the ungated one is ignored.
        assert_eq!(
            significant_improvements(&base, &cur, &GateConfig::default()),
            vec!["oracle/search/a".to_string()]
        );
    }

    #[test]
    fn wobble_and_subfloor_do_not_propose() {
        // −10 %: inside the envelope, no proposal.
        let base = snapshot(&[("oracle/search", "a", 6000.0, 100.0)]);
        let cur = snapshot(&[("oracle/search", "a", 5400.0, 100.0)]);
        assert!(significant_improvements(&base, &cur, &GateConfig::default()).is_empty());
        // −90 % on a sub-floor bench: still no proposal (too jittery).
        let base = snapshot(&[("oracle/search", "tiny", 500.0, 5.0)]);
        let cur = snapshot(&[("oracle/search", "tiny", 50.0, 5.0)]);
        assert!(significant_improvements(&base, &cur, &GateConfig::default()).is_empty());
    }

    #[test]
    fn proposed_baseline_takes_the_elementwise_min() {
        let base = snapshot(&[
            ("oracle/search", "improved", 6000.0, 100.0),
            ("oracle/search", "drifted", 2000.0, 50.0),
            ("oracle/search", "retired", 3000.0, 50.0),
        ]);
        let cur = snapshot(&[
            ("oracle/search", "improved", 3000.0, 50.0),
            ("oracle/search", "drifted", 2300.0, 50.0), // slower but in-envelope
            ("oracle/search", "landed", 1500.0, 50.0),
        ]);
        let proposed = propose_baseline(&base, &cur);
        // Improved benches adopt the new mean; drifted ones keep the
        // committed reference (no upward ratchet); retired stay; new land.
        assert_eq!(proposed["oracle/search/improved"].mean_ns, 3000.0);
        assert_eq!(proposed["oracle/search/drifted"].mean_ns, 2000.0);
        assert_eq!(proposed["oracle/search/retired"].mean_ns, 3000.0);
        assert_eq!(proposed["oracle/search/landed"].mean_ns, 1500.0);
        assert_eq!(proposed.len(), 4);
    }

    #[test]
    fn rendered_estimates_round_trip() {
        let snap = snapshot(&[
            ("oracle/search", "a", 6000.5, 100.25),
            ("hom_scaling/exists_hom", "b", 2000.0, 50.0),
        ]);
        let rendered = render_estimates(&snap);
        assert_eq!(parse_estimates(&rendered), snap);
        assert_eq!(rendered.lines().count(), 2);
    }

    #[test]
    fn sub_floor_gated_benches_are_detected() {
        let config = GateConfig::default();
        let base = snapshot(&[
            // Gated but below the 1000 ns floor: never actually compared.
            ("oracle/search", "tiny", 400.0, 10.0),
            // Gated and above the floor: genuinely protected.
            ("oracle/search", "big", 6000.0, 100.0),
            // Below the floor but not gated: no note owed.
            ("parser/misc", "tiny", 400.0, 10.0),
        ]);
        assert_eq!(sub_floor_gated(&base, &config), vec!["oracle/search/tiny"]);
    }

    #[test]
    fn proposal_artifact_flags_the_silent_allowlist_and_still_parses() {
        let config = GateConfig::default();
        let base = snapshot(&[
            ("oracle/search", "tiny", 400.0, 10.0),
            ("oracle/search", "big", 6000.0, 100.0),
        ]);
        let cur = snapshot(&[
            ("oracle/search", "tiny", 380.0, 10.0),
            ("oracle/search", "big", 3000.0, 50.0),
        ]);
        let proposed = propose_baseline(&base, &cur);
        let artifact = render_proposal(&proposed, &sub_floor_gated(&base, &config), &config);
        // The note names the hole and the floor explicitly …
        let notes: Vec<&str> = artifact
            .lines()
            .filter(|l| l.starts_with("# NOTE:"))
            .collect();
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("oracle/search/tiny"), "{}", notes[0]);
        assert!(notes[0].contains("1000 ns"), "{}", notes[0]);
        // … and the artifact still parses as a baseline (notes are skipped
        // by the lenient line parser).
        assert_eq!(parse_estimates(&artifact), proposed);
    }
}
