//! `BENCH_<name>.json` emission: each ablation bench persists its
//! headline numbers plus a phase-time breakdown at the repository
//! root, so the perf trajectory is a `git diff` away instead of buried
//! in `target/criterion/summary.txt`.
//!
//! Report shape (stable keys, insertion-ordered):
//!
//! ```json
//! {
//!   "bench": "parallel",
//!   "headline": {"chain_speedup_8shards": 3.1, ...},
//!   "phases_ms": {"quiesce.fixpoint": 812.4, ...},
//!   "notes": {"workload": "fanout_chain/32"}
//! }
//! ```

use std::io;
use std::path::{Path, PathBuf};

use crate::json::{write_f64, write_str, ObjectWriter};
use crate::metrics::Registry;

/// A bench report under construction.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The bench name; the file becomes `BENCH_<name>.json`.
    pub name: String,
    /// Headline metrics, insertion-ordered (`"headline"` object).
    pub headline: Vec<(String, f64)>,
    /// Phase wall times in milliseconds (`"phases_ms"` object).
    pub phases: Vec<(String, f64)>,
    /// Free-form annotations (`"notes"` object).
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// A new empty report for `BENCH_<name>.json`.
    pub fn new(name: &str) -> Report {
        Report {
            name: name.to_string(),
            ..Report::default()
        }
    }

    /// Adds a headline metric.
    pub fn headline(mut self, key: &str, value: f64) -> Report {
        self.headline.push((key.to_string(), value));
        self
    }

    /// Adds a phase wall time in milliseconds.
    pub fn phase_ms(mut self, key: &str, ms: f64) -> Report {
        self.phases.push((key.to_string(), ms));
        self
    }

    /// Adds a note.
    pub fn note(mut self, key: &str, value: &str) -> Report {
        self.notes.push((key.to_string(), value.to_string()));
        self
    }

    /// Pulls every wall-clock timing histogram out of `registry` as a
    /// phase entry: total time in milliseconds, with a trailing `_ns`
    /// stripped from the metric name (`quiesce.fixpoint_ns` →
    /// `quiesce.fixpoint`). Empty histograms are skipped.
    pub fn phases_from(mut self, registry: &Registry) -> Report {
        for (name, snap) in registry.timings() {
            if snap.count == 0 {
                continue;
            }
            let key = name.strip_suffix("_ns").unwrap_or(&name).to_string();
            self.phases.push((key, snap.sum as f64 / 1e6));
        }
        self
    }

    /// Renders the report as a pretty-ish single JSON object.
    pub fn to_json(&self) -> String {
        fn section(pairs: &[(String, f64)]) -> String {
            let mut out = String::from("{");
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(&mut out, k);
                out.push(':');
                write_f64(&mut out, *v);
            }
            out.push('}');
            out
        }
        let mut notes = String::from("{");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                notes.push(',');
            }
            write_str(&mut notes, k);
            notes.push(':');
            write_str(&mut notes, v);
        }
        notes.push('}');

        let mut w = ObjectWriter::new();
        w.str_field("bench", &self.name)
            .raw_field("headline", &section(&self.headline))
            .raw_field("phases_ms", &section(&self.phases))
            .raw_field("notes", &notes);
        w.finish()
    }

    /// Writes `BENCH_<name>.json` into `dir`.
    pub fn write_to_dir(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, format!("{}\n", self.to_json()))?;
        Ok(path)
    }

    /// Writes `BENCH_<name>.json` at the repository root (located from
    /// the running executable; see [`repo_root`]) and echoes the path
    /// on stdout so bench logs show where the trajectory landed.
    pub fn write_at_repo_root(&self) -> io::Result<PathBuf> {
        let root = repo_root().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "could not locate repository root")
        })?;
        let path = self.write_to_dir(&root)?;
        println!("[obs] wrote {}", path.display());
        Ok(path)
    }
}

/// Whether `dir` looks like the top of a checkout.
fn is_repo_root(dir: &Path) -> bool {
    dir.join("Cargo.lock").exists() || dir.join(".git").exists()
}

/// The repository an executable at `exe` was built from: the parent of
/// the `target` directory it lives in (the layout `cargo bench`
/// produces) — when that parent is a checkout. Under a redirected
/// `CARGO_TARGET_DIR` the `target` directory belongs to no repository,
/// and the answer is `None`.
fn repo_root_of_exe(exe: &Path) -> Option<PathBuf> {
    let target = exe.ancestors().find(|dir| dir.ends_with("target"))?;
    let parent = target.parent()?;
    is_repo_root(parent).then(|| parent.to_path_buf())
}

/// Locates the repository root: the checkout whose `target` directory
/// the running executable lives in, falling back to the first ancestor
/// of the current directory containing `Cargo.lock` or `.git`.
pub fn repo_root() -> Option<PathBuf> {
    let from_exe = std::env::current_exe().ok();
    if let Some(root) = from_exe.as_deref().and_then(repo_root_of_exe) {
        return Some(root);
    }
    let cwd = std::env::current_dir().ok()?;
    cwd.ancestors()
        .find(|dir| is_repo_root(dir))
        .map(Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape_is_stable() {
        let r = Report::new("demo")
            .headline("throughput", 123.5)
            .headline("bad", f64::NAN)
            .phase_ms("quiesce.fixpoint", 10.25)
            .note("workload", "chain/32");
        assert_eq!(
            r.to_json(),
            r#"{"bench":"demo","headline":{"throughput":123.5,"bad":null},"phases_ms":{"quiesce.fixpoint":10.25},"notes":{"workload":"chain/32"}}"#
        );
    }

    #[test]
    fn phases_from_registry_strips_ns_suffix_and_converts_to_ms() {
        let reg = Registry::new();
        reg.timing("quiesce.step_ns").record(2_000_000); // 2 ms
        reg.timing("empty_ns"); // no observations — skipped
        reg.histogram("store.replay_bytes").record(10); // not timing
        let r = Report::new("x").phases_from(&reg);
        assert_eq!(r.phases, vec![("quiesce.step".to_string(), 2.0)]);
    }

    #[test]
    fn write_to_dir_emits_bench_file() {
        let dir = std::env::temp_dir().join(format!("obs_report_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = Report::new("smoke")
            .headline("n", 1.0)
            .write_to_dir(&dir)
            .unwrap();
        assert!(path.ends_with("BENCH_smoke.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"bench\":\"smoke\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repo_root_is_found_from_tests() {
        // Under `cargo test` the exe lives in target/debug/deps of this
        // checkout or, with the target directory redirected, the tests
        // run from inside the checkout: either rule finds it.
        let root = repo_root().expect("repo root");
        assert!(is_repo_root(&root));
    }

    #[test]
    fn a_target_directory_counts_only_inside_a_checkout() {
        let tmp = std::env::temp_dir().join(format!("obs_repo_root_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let exe = Path::new("debug/deps/bench-0123");
        // A checkout's own target directory.
        let repo = tmp.join("repo");
        std::fs::create_dir_all(repo.join("target")).unwrap();
        std::fs::write(repo.join("Cargo.lock"), "").unwrap();
        assert_eq!(repo_root_of_exe(&repo.join("target").join(exe)), Some(repo));
        // A foreign target directory (`CARGO_TARGET_DIR=/elsewhere/target`).
        let elsewhere = tmp.join("elsewhere");
        std::fs::create_dir_all(elsewhere.join("target")).unwrap();
        assert_eq!(repo_root_of_exe(&elsewhere.join("target").join(exe)), None);
        // No target directory at all.
        assert_eq!(repo_root_of_exe(&tmp.join("bin").join("bench-0123")), None);
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
