//! What the benchmark reads from its surroundings: process memory, the
//! machine's hardware threads, the commit it was built from, and the
//! environment overrides it refuses to run under.

use std::path::Path;

/// Prefix of every environment override the libraries consult. An
/// override would silently re-route a workload (routing backend,
/// stepping strategy, thread or shard count), so none may be set.
pub const ENV_PREFIX: &str = "DYNAQUAR_";

/// The `DYNAQUAR_*` variables present in the environment.
pub fn env_overrides() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(ENV_PREFIX))
        .collect();
    names.sort();
    names
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Hardware threads the OS grants this process.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit checked out in `root`, read from `.git` without running
/// git (which would search parent directories); `"unknown"` outside a
/// git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(id) = read(&git.join(reference)) {
        return id;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable_and_positive() {
        let mb = peak_rss_mb("self").expect("linux /proc");
        assert!(mb > 0.0);
        assert!(hardware_threads() >= 1);
    }

    #[test]
    fn commit_outside_a_checkout_is_unknown() {
        let dir = std::env::temp_dir().join(format!("dqbench-nogit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(commit(&dir), "unknown");
        std::fs::create_dir_all(dir.join(".git/refs/heads")).unwrap();
        std::fs::write(dir.join(".git/HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.join(".git/refs/heads/main"), "abc123\n").unwrap();
        assert_eq!(commit(&dir), "abc123");
        std::fs::remove_file(dir.join(".git/refs/heads/main")).unwrap();
        std::fs::write(
            dir.join(".git/packed-refs"),
            "# pack\ndef456 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(commit(&dir), "def456");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
