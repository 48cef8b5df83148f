//! Public-API surface snapshot: a generated listing of every `pub` item
//! declaration per workspace crate, diffed against a checked-in file so
//! API changes are explicit in review — adding, removing or re-signing
//! a public item fails CI until the snapshot is regenerated.
//!
//! Regenerate after an intentional API change:
//!
//! ```text
//! EW_UPDATE_API=1 cargo test --test public_api
//! ```
//!
//! The extraction is deliberately simple — line-based, first line of
//! each declaration, cut at the body — which is stable for this
//! codebase's rustfmt-formatted style. It lists `pub` items found
//! anywhere in `src/` (including ones inside private modules, which
//! are conservative extras; shim crates are skipped, they mimic
//! external APIs).

use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

const SNAPSHOT: &str = "tests/public_api_snapshot.txt";

/// Every file under `dir` whose path ends in `suffix`, in sorted order.
fn files_ending(dir: &Path, suffix: &str, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("readable dir {}: {e}", dir.display()))
        .map(|e| e.expect("readable entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            files_ending(&path, suffix, out);
        } else if path.to_string_lossy().ends_with(suffix) {
            out.push(path);
        }
    }
}

/// The first line of a `pub` declaration, cut at the body/terminator.
fn pub_decl(line: &str) -> Option<String> {
    let trimmed = line.trim_start();
    let is_item = ["pub fn", "pub struct", "pub enum", "pub trait", "pub mod"]
        .iter()
        .chain(&[
            "pub const",
            "pub static",
            "pub type",
            "pub use",
            "pub unsafe fn",
        ])
        .any(|prefix| {
            trimmed.starts_with(prefix)
                && trimmed[prefix.len()..]
                    .chars()
                    .next()
                    .is_none_or(|c| c.is_whitespace())
        });
    if !is_item {
        return None;
    }
    let cut = trimmed.find(['{', ';']).unwrap_or(trimmed.len());
    Some(trimmed[..cut].trim_end().to_string())
}

fn surface(root: &Path) -> String {
    let mut files = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.is_dir() && !p.ends_with("shims"))
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            files_ending(&src, ".rs", &mut files);
        }
    }
    files_ending(&root.join("src"), ".rs", &mut files);

    let mut out = String::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .expect("file under root")
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&file).expect("readable source");
        let mut decls = Vec::new();
        // Skip `#[cfg(test)]`-gated *bodies*: test helpers are not API.
        // `pending` covers the attribute-to-item gap; a semicolon item
        // (`#[cfg(test)] mod proptests;`) has no body to skip.
        let mut pending_cfg_test = false;
        let mut in_tests = false;
        let mut depth_at_tests = 0usize;
        let mut depth = 0usize;
        for line in text.lines() {
            let trimmed = line.trim_start();
            if !in_tests && trimmed.starts_with("#[cfg(test)]") {
                pending_cfg_test = true;
                depth_at_tests = depth;
            } else if pending_cfg_test && !trimmed.starts_with("#[") && !trimmed.is_empty() {
                pending_cfg_test = false;
                let brace = trimmed.find('{');
                let semi = trimmed.find(';');
                if brace.is_some() && (semi.is_none() || brace < semi) {
                    in_tests = true; // a braced item: skip its body
                }
            }
            depth += line.matches('{').count();
            depth = depth.saturating_sub(line.matches('}').count());
            if in_tests {
                if depth <= depth_at_tests && line.contains('}') {
                    in_tests = false;
                }
                continue;
            }
            if let Some(decl) = pub_decl(line) {
                decls.push(decl);
            }
        }
        if !decls.is_empty() {
            writeln!(out, "# {rel}").unwrap();
            for d in decls {
                writeln!(out, "{d}").unwrap();
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn public_api_surface_matches_snapshot() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let current = surface(&root);
    let snapshot_path = root.join(SNAPSHOT);

    if std::env::var_os("EW_UPDATE_API").is_some() {
        fs::write(&snapshot_path, &current).expect("snapshot writable");
        return;
    }

    let recorded = fs::read_to_string(&snapshot_path).unwrap_or_default();
    if current == recorded {
        return;
    }
    let cur: Vec<&str> = current.lines().collect();
    let rec: Vec<&str> = recorded.lines().collect();
    let mut diff = String::new();
    for line in &rec {
        if !cur.contains(line) {
            writeln!(diff, "- {line}").unwrap();
        }
    }
    for line in &cur {
        if !rec.contains(line) {
            writeln!(diff, "+ {line}").unwrap();
        }
    }
    panic!(
        "public API surface changed:\n{diff}\nIf intentional, regenerate with:\n    \
         EW_UPDATE_API=1 cargo test --test public_api"
    );
}

/// `pub fn`s that no other source file names and that stay public
/// anyway, as `(file, name, reason)`. Empty: every listed `pub fn` has
/// a caller. An entry needs a reason a reviewer can check, and an entry
/// whose fn gains a caller or goes away fails the test.
const NO_CALLER_NEEDED: &[(&str, &str, &str)] = &[];

/// `text` with every `//` comment (doc comments included) cut out.
/// String and char literals are kept whole, so `"https://…"` is code.
fn without_comments(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            match c {
                '\\' => out.extend(chars.next()),
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '/' if chars.peek() == Some(&'/') => while chars.next_if(|&n| n != '\n').is_some() {},
            // A char literal (`'"'`, `'\''`); a lifetime has no closing quote.
            '\'' => {
                out.push(c);
                let mut ahead = chars.clone();
                let body = match ahead.next() {
                    Some('\\') => 2,
                    Some(_) => 1,
                    None => 0,
                };
                if body > 0 && ahead.nth(body - 1) == Some('\'') {
                    out.extend(chars.by_ref().take(body + 1));
                }
            }
            _ => {
                in_string = c == '"';
                out.push(c);
            }
        }
    }
    out
}

/// The identifiers in `text`: maximal runs of ASCII alphanumerics and `_`.
fn identifiers(text: &str) -> HashSet<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|word| !word.is_empty())
        .collect()
}

#[test]
fn every_pub_fn_has_a_caller() {
    // A name-level floor, not a proof: a `pub fn` in the snapshot passes
    // when the code of any other source file under `crates/`, `src/`,
    // `tests/`, `examples/` or `benchmark/src` (the frozen harness is a
    // caller) names it — a same-named method of another type or a field
    // counts too, a `//` comment does not. One that fails is made
    // private, moved under `#[cfg(test)]`, or deleted.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for tree in ["crates", "src", "tests", "examples", "benchmark/src"] {
        files_ending(&root.join(tree), ".rs", &mut sources);
    }
    let texts: Vec<(String, String)> = sources
        .iter()
        .map(|file| {
            let rel = file.strip_prefix(&root).expect("file under root");
            let text = fs::read_to_string(file).expect("readable source");
            (
                rel.to_string_lossy().replace('\\', "/"),
                without_comments(&text),
            )
        })
        .collect();
    let named: Vec<(&str, HashSet<&str>)> = texts
        .iter()
        .map(|(rel, text)| (rel.as_str(), identifiers(text)))
        .collect();
    let called = |file: &str, name: &str| {
        named
            .iter()
            .any(|(other, idents)| *other != file && idents.contains(name))
    };
    let listing = surface(&root);
    let mut file = "";
    let mut offenders = Vec::new();
    let mut listed = Vec::new();
    for line in listing.lines() {
        if let Some(header) = line.strip_prefix("# ") {
            file = header;
            continue;
        }
        let Some(signature) = line
            .strip_prefix("pub fn ")
            .or_else(|| line.strip_prefix("pub unsafe fn "))
        else {
            continue;
        };
        let name = signature
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .next()
            .unwrap_or_default();
        listed.push((file, name));
        let allowed = NO_CALLER_NEEDED
            .iter()
            .any(|&(f, n, _)| (f, n) == (file, name));
        if !allowed && !called(file, name) {
            offenders.push(format!("{file}: {name}"));
        }
    }
    assert!(
        offenders.is_empty(),
        "pub fns no other source file names; make each private, move it \
         under #[cfg(test)], or delete it:\n{}",
        offenders.join("\n")
    );
    for &(file, name, reason) in NO_CALLER_NEEDED {
        assert!(
            !reason.is_empty(),
            "{file}: {name} is allowed without a reason"
        );
        assert!(
            listed.contains(&(file, name)) && !called(file, name),
            "{file}: {name} is on the allow-list but is gone or has a caller"
        );
    }
}

#[test]
fn one_fault_world() {
    // The fault suites share `tests/world/`: its builder makes every
    // system and driver, its runner picks every routing-bus transport,
    // and its equality checks are the only ones. None of the six may
    // grow its own copy back.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let suites = [
        "bus_parity",
        "cluster_parity",
        "journal_soak",
        "churn_soak",
        "coordinator_soak",
        "protocol_faults",
    ];
    for suite in suites {
        let path = root.join("tests").join(suite).with_extension("rs");
        let code = without_comments(&fs::read_to_string(&path).expect("readable suite"));
        for copy in [
            "EyewnderSystem::new(",
            "WeeklyDriver::new(",
            "RoutingBus::in_proc(",
            "RoutingBus::over_wire(",
            "fn assert_bit_identical",
            "fn assert_epochs_identical",
        ] {
            assert!(
                !code.contains(copy),
                "tests/{suite}.rs has its own `{copy}`: use tests/world/"
            );
        }
    }
}

/// `[dependencies]` entries that no source of their crate names and that
/// stay anyway, as `(crate, dependency, reason)`. An entry needs a
/// checkable reason, and an entry whose dependency gets named or leaves
/// the manifest fails the test.
const UNNAMED_DEPENDENCIES: &[(&str, &str, &str)] = &[
    ("ew-crypto", "crossbeam", FROZEN_LOCK),
    ("ew-system", "crossbeam", FROZEN_LOCK),
];

/// Why an unnamed dependency stays: `benchmark/run.sh` builds with
/// `--locked` against `benchmark/Cargo.lock`, which records it.
const FROZEN_LOCK: &str = "benchmark/Cargo.lock records it and benchmark/run.sh builds --locked";

/// The package name and the `[dependencies]` keys of a manifest.
fn manifest_dependencies(manifest: &Path) -> (String, Vec<String>) {
    let text = fs::read_to_string(manifest).expect("readable manifest");
    let mut name = String::new();
    let mut deps = Vec::new();
    let mut table = "";
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line;
            continue;
        }
        let key = line
            .split(|c: char| c == '=' || c == '.' || c.is_whitespace())
            .next()
            .unwrap_or_default();
        if key.is_empty() || key.starts_with('#') {
            continue;
        }
        match table {
            "[package]" if key == "name" => {
                name = line.split('"').nth(1).expect("quoted name").to_string();
            }
            "[dependencies]" => deps.push(key.to_string()),
            _ => {}
        }
    }
    (name, deps)
}

#[test]
fn every_dependency_is_named() {
    // A name-level floor, like `every_pub_fn_has_a_caller`: each
    // `[dependencies]` entry of a workspace crate (the shims stand in
    // for external crates and are skipped) must appear as `dep::` or
    // `use dep` somewhere under that crate's `src/`. One that does not is
    // dropped from the manifest.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut crate_dirs = vec![root.clone()];
    let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    members.sort();
    crate_dirs.extend(members);
    let mut unnamed = Vec::new();
    for dir in crate_dirs {
        let (name, deps) = manifest_dependencies(&dir.join("Cargo.toml"));
        let mut sources = Vec::new();
        files_ending(&dir.join("src"), ".rs", &mut sources);
        let code: String = sources
            .iter()
            .map(|file| fs::read_to_string(file).expect("readable source"))
            .collect();
        for dep in deps {
            let ident = dep.replace('-', "_");
            if !code.contains(&format!("{ident}::")) && !code.contains(&format!("use {ident}")) {
                unnamed.push((name.clone(), dep));
            }
        }
    }
    let allowed: Vec<(String, String)> = UNNAMED_DEPENDENCIES
        .iter()
        .map(|&(krate, dep, reason)| {
            assert!(
                !reason.is_empty(),
                "{krate}: {dep} is allowed without a reason"
            );
            (krate.to_string(), dep.to_string())
        })
        .collect();
    let offenders: Vec<String> = unnamed
        .iter()
        .filter(|pair| !allowed.contains(pair))
        .map(|(krate, dep)| format!("{krate}: {dep}"))
        .collect();
    assert!(
        offenders.is_empty(),
        "dependencies no source of their crate names; drop each from its \
         manifest:\n{}",
        offenders.join("\n")
    );
    for (krate, dep) in &allowed {
        assert!(
            unnamed.contains(&(krate.clone(), dep.clone())),
            "{krate}: {dep} is on the allow-list but is named or gone"
        );
    }
}

#[test]
fn system_exposes_exactly_four_round_drivers() {
    // One driver per thing the week does: `run_round{,_on}` and
    // `run_epochs_deadline{,_on}`. Bus, shard count, clock and fault
    // script are arguments, never a fifth spelling.
    let listing = surface(&PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    let section = listing
        .split("# crates/ew-system/src/system.rs\n")
        .nth(1)
        .expect("system.rs is listed")
        .split("\n\n")
        .next()
        .expect("section body");
    let drivers: Vec<&str> = section
        .lines()
        .filter(|decl| decl.starts_with("pub fn run_"))
        .collect();
    assert_eq!(
        drivers.len(),
        4,
        "the entry-point lattice regrew: {drivers:#?}"
    );
}

#[test]
fn one_round_state() {
    // `backend::RoundState` is the one shape of an open aggregation
    // round: a shard's checkpoint is a clone of it, a shard's partial
    // view is the state itself, `absorb` is the only validator and
    // `finalize` the only enumeration sweep. None of the types and
    // entry points that used to restate it may come back.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let listing = surface(&root);
    for retired in [
        "RoundCheckpoint",
        "ShardView",
        "ViewMerger",
        "receive_report",
        "receive_adjustment",
        "take_shard_view",
    ] {
        assert!(
            !listing.contains(retired),
            "{retired} restates RoundState in the public API"
        );
    }
    let sweeps = count_in_system_code(&root, ".all_ids()");
    assert_eq!(
        sweeps, 1,
        "the ad-ID space is enumerated in one place, RoundState::finalize"
    );
}

/// A source file up to its `#[cfg(test)]` module.
fn non_test_code(file: &Path) -> String {
    let text = fs::read_to_string(file).expect("readable source");
    text.split("\n#[cfg(test)]\n")
        .next()
        .unwrap_or("")
        .to_string()
}

/// Occurrences of `needle` in the non-test code of `ew-system`.
fn count_in_system_code(root: &Path, needle: &str) -> usize {
    let mut sources = Vec::new();
    files_ending(&root.join("crates/ew-system/src"), ".rs", &mut sources);
    sources
        .iter()
        .map(|file| non_test_code(file).matches(needle).count())
        .sum()
}

#[test]
fn one_aggregation_backend() {
    // `ClusterBackend` is the one `AggregationBackend` — a single node is
    // a cluster of one. The one-node twin may not come back.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    // In two halves so a repository-wide grep for the retired type
    // stays empty.
    let retired = ["Backend", "Server"].concat();
    assert!(
        !surface(&root).contains(&retired),
        "{retired} is back in the public API"
    );
    assert_eq!(
        count_in_system_code(&root, "impl AggregationBackend for"),
        1,
        "a second aggregation backend"
    );
}

#[test]
fn one_thread_per_round() {
    // A week's ingest and every round run on the calling thread, client
    // by client, as each client is its own browser in the paper. Neither
    // a client-shard fan-out, a cluster absorb over threads, nor the
    // config knob that selected them may come back.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for fan_out in ["map_shards", "thread::scope", "spawn("] {
        assert_eq!(
            count_in_system_code(&root, fan_out),
            0,
            "ew-system fans work out over threads again ({fan_out})"
        );
    }
    assert!(
        !surface(&root).contains("with_threads"),
        "with_threads is back in the public API"
    );
}

#[test]
fn one_way_to_lose_a_shard() {
    // A severed uplink is re-linked and its in-flight reports re-sent; a
    // crashed shard restarts from the round log. Nothing moves a key
    // range mid-round, so neither the reassignment, its map broadcast,
    // its adoption record and error codes, nor the log surgery it
    // needed may come back — and the bus handles a dead link without
    // panicking.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let listing = surface(&root);
    for retired in [
        "reassign",
        "ShardMapUpdate",
        "ShardAdopted",
        "forget_shard",
        "live_backends",
        "STALE_SHARD_MAP",
        "MALFORMED_SHARD_MAP",
    ] {
        assert!(
            !listing.contains(retired),
            "{retired} is back in the public API"
        );
    }
    let code = non_test_code(&root.join("crates/ew-system/src/cluster.rs"));
    let bus_impl = code
        .split("impl<B: ServiceBus> RoutingBus<B> {")
        .nth(1)
        .expect("RoutingBus has an inherent impl")
        .split("\n}\n")
        .next()
        .expect("impl body");
    assert!(
        !bus_impl.contains("expect("),
        "RoutingBus panics on a link failure again"
    );
}

#[test]
fn only_the_protocol_the_system_speaks() {
    // Every message kind, sender and error code belongs to a
    // conversation some driver holds. Telemetry is read in process, the
    // driver ticks the coordinator by direct call, and no second
    // coordinator exists to broadcast a ledger to: neither the retired
    // tags, their sender, their error code, the histogram wire form,
    // the wall-clock tick source nor the entry points that spoke them
    // may come back.
    let listing = surface(&PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    for retired in [
        "METRICS_QUERY",
        "METRICS_REPLY",
        "TICK: u8",
        "EPOCH_STATE",
        "TELEMETRY: u8",
        "STALE_MEMBERSHIP",
        "HistogramSnapshot",
        "MonotonicClock",
        "query_metrics_on",
        "from_reply_parts",
        "state_message",
    ] {
        assert!(
            !listing.contains(retired),
            "{retired} is back in the public API"
        );
    }
}

#[test]
fn one_measuring_stick() {
    // `benchmark/` (its own package, outside the workspace) is the only
    // benchmark harness in the repository. A second one starts
    // with a bench target, a bench-framework dependency or a committed
    // result file — none may come back.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    // In two halves so a repository-wide grep for the retired harness
    // stays empty.
    let framework = ["crit", "erion"].concat();
    let mut manifests = vec![root.join("Cargo.toml")];
    files_ending(&root.join("crates"), "Cargo.toml", &mut manifests);
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("readable manifest");
        assert!(
            !text.contains("[[bench]]") && !text.contains(&framework),
            "{} declares a second benchmark harness",
            manifest.display()
        );
    }
    assert!(
        !root.join("crates/ew-bench/benches").exists(),
        "crates/ew-bench/benches is back"
    );
    let results: Vec<PathBuf> = fs::read_dir(&root)
        .expect("readable root")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| {
            let name = p.file_name().unwrap_or_default().to_string_lossy();
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    assert!(
        results.is_empty(),
        "bench result files at the root: {results:?}"
    );
}

#[test]
fn the_log_keeps_what_restart_reads() {
    // The round log holds the `Absorbed` records a restarted shard
    // replays; the control log holds coordinator checkpoints and parked
    // reports. The record kinds nobody read back, their tags, and the
    // slot ring that existed only to fill the shard-map record may not
    // come back.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let listing = surface(&root);
    let mut sources = Vec::new();
    files_ending(&root.join("crates/ew-proto/src"), ".rs", &mut sources);
    files_ending(&root.join("crates/ew-system/src"), ".rs", &mut sources);
    let code: String = sources.iter().map(|file| non_test_code(file)).collect();
    for retired in [
        "MapInstalled",
        "RoundFinalized",
        "EpochOpened",
        "MembershipInstalled",
        "EpochCollapsed",
        "MAP_INSTALLED",
        "ROUND_FINALIZED",
        "EPOCH_OPENED",
        "MEMBERSHIP_INSTALLED",
        "EPOCH_COLLAPSED",
        "SLOTS_PER_SHARD",
        "num_slots",
        "owners(",
    ] {
        assert!(
            !listing.contains(retired),
            "{retired} is back in the public API"
        );
        assert!(
            !code.contains(retired),
            "{retired} is back in ew-proto or ew-system"
        );
    }
}

/// The line under each `#[allow(unsafe_code)]` in the non-test code of
/// the crate sources under `dir`.
fn unsafe_allowances(dir: &Path) -> Vec<String> {
    let mut sources = Vec::new();
    files_ending(dir, ".rs", &mut sources);
    sources
        .iter()
        .flat_map(|file| {
            let code = non_test_code(file);
            let lines: Vec<&str> = code.lines().collect();
            lines
                .iter()
                .enumerate()
                .filter(|(_, line)| line.trim() == "#[allow(unsafe_code)]")
                .map(|(i, _)| lines[i + 1].trim().to_string())
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn one_blinding_derivation() {
    // A blinding term is one MAC per pair per round expanded by the
    // AES-128-CTR keystream straight into the cells (derivation v4). The
    // counter-mode HMAC expansion, its per-round stream buffers and the
    // caller-less multi-server OPRF may not come back; `ew-crypto`'s
    // `unsafe` sites are pinned in `unsafe_only_at_the_tier_dispatches`.
    let listing = surface(&PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    for retired in [
        "BlindingStream",
        "hmac_expand_multi",
        "expansion_tier",
        "multi_oprf",
    ] {
        assert!(
            !listing.contains(retired),
            "{retired} is back in the public API"
        );
    }
}

/// The four crates that allow `unsafe` (every other crate forbids it),
/// each with the sites where it allows it: only where a CPU tier is
/// dispatched, directly under the feature detection.
const UNSAFE_SITES: [(&str, &[&str], &str); 4] = [
    // The CRC dispatch into its carry-less kernel.
    (
        "ew-proto",
        &["let crc = unsafe { clmul::crc32(data) };"],
        "ew-proto allows unsafe code only at the CRC dispatch",
    ),
    // `lanes::pow_rows`, whose body is the call into the IFMA kernel.
    (
        "ew-bigint",
        &["fn pow_rows(md: &LaneModulus, ops: &[WindowOp], rows: &mut [LaneRow]) {"],
        "ew-bigint allows unsafe code only at the lane kernel dispatch",
    ),
    // The finalize sweep's call into its AVX-512 block kernel.
    (
        "ew-sketch",
        &["let sweep_block = |cms: &Self, first, n, block: &mut Block| unsafe {"],
        "ew-sketch allows unsafe code only at the sweep dispatch",
    ),
    // The keystream dispatch into its VAES and AES-NI bodies, and the
    // SHA-256 dispatch into its SHA-extensions body.
    (
        "ew-crypto",
        &[
            "pub(crate) fn add_keystream(key: &[u32; 4], negate: bool, out: &mut [u32]) {",
            "pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {",
        ],
        "ew-crypto allows unsafe code only at the keystream and SHA-256 dispatches",
    ),
];

/// Checks `krate`'s `unsafe` sites against its row of [`UNSAFE_SITES`].
fn assert_unsafe_sites(krate: &str) {
    let (_, sites, message) = UNSAFE_SITES
        .iter()
        .find(|(name, _, _)| *name == krate)
        .unwrap_or_else(|| panic!("{krate} has no row in UNSAFE_SITES"));
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates")
        .join(krate)
        .join("src");
    assert_eq!(unsafe_allowances(&src), *sites, "{message}");
}

#[test]
fn unsafe_only_at_the_tier_dispatches() {
    // Every row of the table holds, and every crate without a row
    // forbids `unsafe` outright.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for (krate, _, _) in UNSAFE_SITES {
        assert_unsafe_sites(krate);
    }
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .map(|entry| entry.expect("crate entry").path())
        .filter(|path| path.join("src/lib.rs").is_file())
        .collect();
    crates.sort();
    assert!(!crates.is_empty(), "no crate found under crates/");
    for dir in crates {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .expect("crate name");
        if UNSAFE_SITES.iter().any(|(krate, _, _)| *krate == name) {
            continue;
        }
        let lib = fs::read_to_string(dir.join("src/lib.rs")).expect("lib.rs");
        assert!(
            lib.lines()
                .any(|line| line.trim() == "#![forbid(unsafe_code)]"),
            "{name} has no row in UNSAFE_SITES but does not forbid unsafe code"
        );
    }
}

#[test]
fn one_checksum_dispatch() {
    // `ew-proto` allows `unsafe` at one call: the CRC dispatch into its
    // carry-less kernel, directly under the CPU feature detection.
    assert_unsafe_sites("ew-proto");
}

#[test]
fn one_lane_dispatch() {
    // `ew-bigint` allows `unsafe` at one fn: `lanes::pow_rows`, whose
    // body is the call into the IFMA kernel directly under the CPU
    // feature detection.
    assert_unsafe_sites("ew-bigint");
}

#[test]
fn one_sweep_dispatch() {
    // `ew-sketch` allows `unsafe` at one statement: the finalize sweep's
    // call into its AVX-512 row kernel, directly under the CPU feature
    // detection.
    assert_unsafe_sites("ew-sketch");
}
