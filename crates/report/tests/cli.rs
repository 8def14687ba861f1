//! End-to-end tests of the `reproduce` binary: the deliverable a user
//! actually runs.

use std::process::Command;

fn reproduce(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn table2_prints_published_pairs() {
    let (stdout, _, ok) = reproduce(&["table2"]);
    assert!(ok);
    assert!(stdout.contains("DGEMM"));
    assert!(stdout.contains("13.0 | 13.0"), "{stdout}");
}

#[test]
fn table6_prints_dashes_where_the_paper_does() {
    let (stdout, _, ok) = reproduce(&["table6"]);
    assert!(ok);
    assert!(stdout.contains("mini-GAMESS"));
    // MI250 mini-GAMESS columns are dashes.
    assert!(stdout.contains("- | -"));
}

#[test]
fn validate_exits_zero_when_model_is_in_tolerance() {
    let (stdout, _, ok) = reproduce(&["validate"]);
    assert!(ok, "validate must pass on the shipped calibration");
    assert_eq!(
        stdout,
        "conformance: 139/139 published values reproduced within tolerance\n"
    );
}

#[test]
fn unknown_target_fails_with_guidance() {
    let (_, stderr, ok) = reproduce(&["tableX"]);
    assert!(!ok);
    assert!(stderr.contains("unknown target"));
    assert!(stderr.contains("table1..table6"));
}

#[test]
fn fig1_emits_csv() {
    let (stdout, _, ok) = reproduce(&["fig1"]);
    assert!(ok);
    let header = stdout.lines().next().expect("has header");
    assert!(header.starts_with("footprint_bytes"));
    assert_eq!(header.split(',').count(), 5);
}

#[test]
fn scaling_summary_prints_percentages() {
    let (stdout, _, ok) = reproduce(&["scaling"]);
    assert!(ok);
    assert!(stdout.contains("Triad bandwidth"));
    assert!(stdout.contains("100%"));
}

#[test]
fn profile_pcie_h2d_is_byte_deterministic_and_spans_three_layers() {
    let dir = std::env::temp_dir().join("pvc_cli_profile_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    for path in [&a, &b] {
        let (stdout, _, ok) = reproduce(&["profile", "pcie-h2d", path.to_str().unwrap()]);
        assert!(ok, "{stdout}");
        assert!(stdout.contains("valid JSON"), "{stdout}");
        assert!(stdout.contains("Where did the (virtual) time go"));
    }
    let ja = std::fs::read(&a).unwrap();
    let jb = std::fs::read(&b).unwrap();
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "same workload twice must emit byte-identical traces");
    // Spans from at least three layers of the stack (acceptance check).
    let text = String::from_utf8(ja).unwrap();
    for cat in ["\"cat\": \"simrt\"", "\"cat\": \"fabric\"", "\"cat\": \"workload\""] {
        assert!(text.contains(cat), "missing {cat}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_without_workload_lists_catalog() {
    let (_, stderr, ok) = reproduce(&["profile"]);
    assert!(!ok);
    assert!(stderr.contains("usage: reproduce profile"));
    assert!(stderr.contains("pcie-h2d"));
    assert!(stderr.contains("cloverleaf"));
}

#[test]
fn profile_unknown_workload_fails_with_catalog() {
    let (_, stderr, ok) = reproduce(&["profile", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("unknown profile workload 'nope'"));
    assert!(stderr.contains("miniqmc"));
}

#[test]
fn csv_writes_artifacts_to_requested_dir() {
    let dir = std::env::temp_dir().join("pvc_cli_csv_test");
    let _ = std::fs::remove_dir_all(&dir);
    let (stdout, _, ok) = reproduce(&["csv", dir.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    for f in ["table2.csv", "table3.csv", "table6.csv", "figure1.csv"] {
        assert!(dir.join(f).exists(), "{f} missing");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `report` row is a verb: `reproduce <name>` prints exactly the
/// `text` that `reproduce query` answers for the row's request.
#[test]
fn report_verbs_print_their_served_text() {
    let dir = std::env::temp_dir().join("pvc_cli_report_test");
    let _ = std::fs::remove_dir_all(&dir);
    let rows = pvc_report::serve::ARTIFACTS.iter().filter(|a| a.kind == "report");
    let mut verbs = Vec::new();
    for row in rows {
        let verb = row.verb.expect("a report row is a verb");
        let req = write_request(&dir, &format!("{verb}.json"), &row.request().compact());
        let (envelope, _, ok) = reproduce(&["query", &req]);
        assert!(ok, "{envelope}");
        let envelope = pvc_core::json::parse(&envelope).expect("envelope parses");
        let served = envelope
            .get("result")
            .and_then(|r| r.get("text"))
            .and_then(pvc_core::Json::as_str)
            .expect("a report result is text");
        let (printed, stderr, ok) = reproduce(&[verb]);
        assert!(ok, "{verb}: {stderr}");
        assert!(printed == served, "{verb} prints what its request answers");
        verbs.push(verb);
    }
    assert_eq!(
        verbs,
        ["charts", "rooflines", "energy", "fabric", "experiments", "conformance", "list"]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn write_request(dir: &std::path::Path, name: &str, body: &str) -> String {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path.to_str().unwrap().to_string()
}

#[test]
fn query_twice_is_byte_identical_and_second_run_hits_cache() {
    let dir = std::env::temp_dir().join("pvc_cli_query_test");
    let _ = std::fs::remove_dir_all(&dir);
    let req = write_request(&dir, "t2.json", r#"{"kind":"table","id":2}"#);
    // Two separate processes: byte-identical canonical envelopes.
    let (a, _, ok_a) = reproduce(&["query", &req]);
    let (b, _, ok_b) = reproduce(&["query", &req]);
    assert!(ok_a && ok_b);
    assert_eq!(a, b, "one-shot query must be byte-deterministic");
    assert!(a.contains("\"result\""), "{a}");
    assert!(a.contains("fnv64:"), "{a}");
    // Two rounds in one process: round two is served from the cache.
    let (out, stats, ok) = reproduce(&["query", "--rounds", "2", "--stats", &req]);
    assert!(ok, "{stats}");
    assert!(stats.contains("counter serve.cache.hit = 1"), "{stats}");
    assert!(stats.contains("counter serve.cache.miss = 1"), "{stats}");
    let half = out.len() / 2;
    assert_eq!(out[..half], out[half..], "cached round must not perturb bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One store file has one writer: while another store holds the file,
/// `warm` refuses it and `query` answers from memory, leaving it alone.
#[test]
fn a_locked_store_is_refused_by_warm_and_bypassed_by_query() {
    let dir = std::env::temp_dir().join("pvc_cli_lock_test");
    let _ = std::fs::remove_dir_all(&dir);
    let req = write_request(&dir, "t2.json", r#"{"kind":"table","id":2}"#);
    let path = dir.join("held.store");
    let store = path.to_str().unwrap();
    let fp = pvc_report::warm::build_fingerprint();
    let (held, _) = pvc_store::Store::open(&path, fp).expect("store opens");
    let before = std::fs::read(&path).unwrap();

    let (_, stderr, ok) = reproduce(&["warm", "--store", store]);
    assert!(!ok, "warm must not write a store another process holds");
    assert!(stderr.contains("is locked by another open store"), "{stderr}");

    let (out, stderr, ok) = reproduce(&["query", "--store", store, &req]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("locked by another open store; serving from memory"), "{stderr}");
    assert_eq!(out, reproduce(&["query", &req]).0, "same answer as without a store");
    assert_eq!(std::fs::read(&path).unwrap(), before, "the held file is untouched");

    drop(held);
    let (_, stderr, ok) = reproduce(&["query", "--store", store, &req]);
    assert!(ok && stderr.contains(": loaded 0 records"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_saturated_queue_returns_typed_overloaded() {
    let dir = std::env::temp_dir().join("pvc_cli_overload_test");
    let _ = std::fs::remove_dir_all(&dir);
    let r1 = write_request(&dir, "r1.json", r#"{"kind":"table","id":1}"#);
    let r2 = write_request(&dir, "r2.json", r#"{"kind":"table","id":4}"#);
    let r3 = write_request(&dir, "r3.json", r#"{"kind":"table","id":5}"#);
    let (out, _, ok) = reproduce(&["query", "--queue-depth", "1", &r1, &r2, &r3]);
    assert!(!ok, "shedding must be reported in the exit code");
    assert!(out.contains("\"kind\": \"overloaded\""), "{out}");
    assert!(out.contains("\"queue_depth\": 1"), "{out}");
    // The admitted request still succeeded alongside the shed ones.
    assert!(out.contains("\"result\""), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_without_files_prints_usage_and_examples() {
    let (_, stderr, ok) = reproduce(&["query"]);
    assert!(!ok);
    assert!(stderr.contains("usage: reproduce query"));
    assert!(stderr.contains("[--store PATH]"), "{stderr}");
    assert!(stderr.contains(r#"{"kind":"table","id":2}"#));
}

#[test]
fn removed_serving_flags_are_rejected_as_usage_errors() {
    // One process serves one cache, one store and one queue: the raw
    // TCP frontend and the worker-count flag are gone, and asking for either
    // is a usage error (exit 2) rather than a silently ignored knob. Each
    // serving verb accepts only the flags it reads; `--budget`,
    // `--cache-cap` and `warm --chaos` are gone.
    let dir = std::env::temp_dir().join("pvc_cli_removed_flags_test");
    let _ = std::fs::remove_dir_all(&dir);
    let req = write_request(&dir, "t2.json", r#"{"kind":"table","id":2}"#);
    for args in [
        vec!["serve", "--tcp", "127.0.0.1:0"],
        vec!["query", "--shards", "2", req.as_str()],
        vec!["warm", "--shards", "2"],
        vec!["query", "--http", "127.0.0.1:0", req.as_str()],
        vec!["serve", "--rounds", "2"],
        vec!["stats", "--stats"],
        vec!["query", "--budget", "64", req.as_str()],
        vec!["query", "--cache-cap", "8", req.as_str()],
        vec!["serve", "--cache-cap", "8"],
        vec!["stats", "--cache-cap", "8"],
        vec!["warm", "--chaos"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unknown flag") || stderr.contains("usage: reproduce"),
            "{args:?} must name the bad flag or print usage: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_stdin_session_answers_line_per_request() {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["serve", "--stats"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            b"{\"kind\":\"devices\"}\n{\"kind\":\"devices\"}\n[{\"kind\":\"table\",\"id\":1},{\"kind\":\"table\",\"id\":1}]\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "one line per request/batch: {stdout}");
    assert_eq!(lines[0], lines[1], "cache hit must be byte-identical");
    assert!(lines[2].starts_with('['), "array batch answered as array");
    let stats = String::from_utf8(out.stderr).unwrap();
    assert!(stats.contains("counter serve.cache.hit = 1"), "{stats}");
    assert!(
        stats.contains("counter serve.singleflight.deduped = 1"),
        "duplicate inside the array batch is single-flighted: {stats}"
    );
}

#[test]
fn list_advertises_chaos_after_the_count_line() {
    let (stdout, _, ok) = reproduce(&["list"]);
    assert!(ok);
    // The machine-read count line keeps its own line (ci greps it).
    let count_at = stdout
        .find("63 scenarios registered\n")
        .expect("count line present");
    let tail = &stdout[count_at..];
    assert!(
        tail.contains("reproduce chaos <workload> <system> <spec>"),
        "list advertises the chaos verb after the count: {tail}"
    );
    for line in pvc_arch::chaos::GRAMMAR {
        assert!(tail.contains(line), "grammar line missing from list: {line}");
    }
}

#[test]
fn chaos_verb_reports_direction_aware_delta() {
    let (stdout, _, ok) = reproduce(&["chaos", "stream-triad", "aurora", "hbm:0.5"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("chaos report: stream-triad@aurora under 'hbm:0.5'"), "{stdout}");
    assert!(stdout.contains("baseline:"), "{stdout}");
    assert!(stdout.contains("degraded:"), "{stdout}");
    assert!(stdout.contains("delta:    -50.0%"), "{stdout}");

    // Two processes, byte-identical report: the delta path is as
    // deterministic as the scenarios it wraps.
    let (again, _, ok) = reproduce(&["chaos", "stream-triad", "aurora", "hbm:0.5"]);
    assert!(ok);
    assert_eq!(stdout, again);
}

#[test]
fn chaos_verb_attributes_the_bottleneck() {
    let (stdout, _, ok) = reproduce(&["chaos", "pcie-h2d", "aurora", "pcie:3x8"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("[bottleneck: "), "{stdout}");
}

#[test]
fn chaos_verb_rejects_garbage_with_usage_and_grammar() {
    let (_, stderr, ok) = reproduce(&["chaos", "stream-triad", "aurora", "warp:9"]);
    assert!(!ok);
    assert!(stderr.contains("unknown fault"), "{stderr}");
    assert!(stderr.contains("xelink:<plane>:<factor>"), "typed grammar echo: {stderr}");

    let (_, stderr, ok) = reproduce(&["chaos", "stream-triad", "aurora"]);
    assert!(!ok);
    assert!(stderr.contains("usage: reproduce chaos"), "{stderr}");

    let (_, stderr, ok) = reproduce(&["chaos", "stream-triad", "aurora", "stackdown:12"]);
    assert!(!ok);
    assert!(stderr.contains("stackdown"), "apply-time typed rejection: {stderr}");
}

/// `run` and `chaos` print exactly the `text` their served requests
/// answer.
#[test]
fn run_and_chaos_print_their_served_text() {
    let dir = std::env::temp_dir().join("pvc_cli_served_text_test");
    let _ = std::fs::remove_dir_all(&dir);
    let cases: [(&[&str], &str); 2] = [
        (
            &["run", "stream-triad", "aurora"],
            r#"{"kind":"run","workload":"stream-triad","system":"aurora"}"#,
        ),
        (
            &["chaos", "allreduce", "aurora", "xelink:0:0.3"],
            r#"{"kind":"chaos","workload":"allreduce","system":"aurora","chaos":"xelink:0:0.3"}"#,
        ),
    ];
    for (args, doc) in cases {
        let req = write_request(&dir, &format!("{}.json", args[0]), doc);
        let (envelope, _, ok) = reproduce(&["query", &req]);
        assert!(ok, "{envelope}");
        let envelope = pvc_core::json::parse(&envelope).expect("envelope parses");
        let served = envelope
            .get("result")
            .and_then(|r| r.get("text"))
            .and_then(pvc_core::Json::as_str)
            .expect("served text");
        let (printed, stderr, ok) = reproduce(args);
        assert!(ok, "{args:?}: {stderr}");
        assert_eq!(printed, served, "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
