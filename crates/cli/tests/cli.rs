//! Integration tests driving the `procmine` binary end-to-end.

use std::path::PathBuf;
use std::process::{Command, Output};

fn procmine(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_procmine"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("procmine-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    for args in [vec!["help"], vec!["--help"], vec![]] {
        let out = procmine(&args);
        assert!(out.status.success());
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("USAGE"), "{text}");
        assert!(text.contains("generate") && text.contains("mine"));
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = procmine(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"), "{err}");
}

#[test]
fn generate_mine_check_pipeline() {
    let dir = tmpdir("pipeline");
    let log = dir.join("g10.fm");
    let dot = dir.join("model.dot");
    let json = dir.join("model.json");

    let out = procmine(&[
        "generate",
        "--preset",
        "graph10",
        "--executions",
        "200",
        "--seed",
        "7",
        "-o",
        log.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--check",
        "--dot",
        dot.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("conformance: OK"), "{text}");

    let dot_text = std::fs::read_to_string(&dot).unwrap();
    assert!(dot_text.starts_with("digraph"));

    // The saved model checks out against the same log via `check`.
    let out = procmine(&["check", json.to_str().unwrap(), log.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn info_reports_statistics() {
    let dir = tmpdir("info");
    let log = dir.join("log.fm");
    procmine(&[
        "generate",
        "--preset",
        "pend",
        "--executions",
        "50",
        "-o",
        log.to_str().unwrap(),
    ]);
    let out = procmine(&["info", log.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("executions:  50"), "{text}");
    assert!(text.contains("activities:  6"), "{text}");
}

#[test]
fn conditions_on_engine_log() {
    let dir = tmpdir("conditions");
    let log = dir.join("orders.fm");
    let out = procmine(&[
        "generate",
        "--preset",
        "order",
        "--engine",
        "conditions",
        "--executions",
        "300",
        "-o",
        log.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = procmine(&["conditions", log.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Assess -> ManagerApproval"), "{text}");
    assert!(text.contains("o[0] >"), "learned a threshold rule: {text}");
}

#[test]
fn file_errors_name_the_file() {
    let dir = tmpdir("file-errors");
    let log = dir.join("log.fm");
    generate_log(&log, "20", "41");
    let log = log.to_str().unwrap();
    // Each command fails on one missing file; the error names it.
    let cases: [(&[&str], &str); 4] = [
        (&["mine", "/nonexistent/in.fm"], "/nonexistent/in.fm"),
        (
            &["mine", log, "--stats-json", "/nonexistent/s.json"],
            "/nonexistent/s.json",
        ),
        (
            &["mine", "--follow", log, "--checkpoint", "/nonexistent/ck"],
            "/nonexistent/ck",
        ),
        (
            &["check", "/nonexistent/m.json", log],
            "/nonexistent/m.json",
        ),
    ];
    for (args, path) in cases {
        let out = procmine(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("procmine: {path}: ")),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn seqs_format_roundtrip_via_cli() {
    let dir = tmpdir("seqs");
    let log = dir.join("log.seqs");
    procmine(&[
        "generate",
        "--preset",
        "uwi",
        "--executions",
        "40",
        "--format",
        "seqs",
        "-o",
        log.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&log).unwrap();
    assert!(text.lines().count() == 40);
    assert!(text.starts_with("Start "));
    let out = procmine(&["mine", log.to_str().unwrap(), "--format", "seqs", "--check"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn bpmn_export_produces_xml() {
    let dir = tmpdir("bpmn");
    let log = dir.join("log.fm");
    let bpmn = dir.join("model.bpmn");
    procmine(&[
        "generate",
        "--preset",
        "pend",
        "--executions",
        "80",
        "-o",
        log.to_str().unwrap(),
    ]);
    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--bpmn",
        bpmn.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let xml = std::fs::read_to_string(&bpmn).unwrap();
    assert!(xml.contains("<definitions"));
    assert!(xml.contains("<task"));
    assert!(xml.contains("<sequenceFlow"));
}

#[test]
fn convert_between_formats_by_extension() {
    let dir = tmpdir("convert");
    let fm = dir.join("log.fm");
    let xes = dir.join("log.xes");
    let seqs = dir.join("log.seqs");
    procmine(&[
        "generate",
        "--preset",
        "upload",
        "--executions",
        "30",
        "-o",
        fm.to_str().unwrap(),
    ]);
    // fm -> xes -> seqs, formats inferred from extensions.
    let out = procmine(&["convert", fm.to_str().unwrap(), xes.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::read_to_string(&xes).unwrap().contains("<log"));
    let out = procmine(&["convert", xes.to_str().unwrap(), seqs.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&seqs).unwrap();
    assert_eq!(text.lines().count(), 30);
    assert!(text.lines().all(|l| l.starts_with("Start ")));

    // Explicit --to overrides the extension.
    let odd = dir.join("log.data");
    let out = procmine(&[
        "convert",
        fm.to_str().unwrap(),
        odd.to_str().unwrap(),
        "--to",
        "jsonl",
    ]);
    assert!(out.status.success());
    assert!(std::fs::read_to_string(&odd).unwrap().starts_with('{'));
}

#[test]
fn log_readers_default_their_format_from_the_extension() {
    // Every command that reads a log reads what `convert` wrote by
    // extension; `mine --follow` reads Flowmark only, so it refuses a
    // log whose extension names another format unless `--format
    // flowmark` overrides it.
    let dir = tmpdir("format-default");
    let (fm, seqs) = (dir.join("x.fm"), dir.join("x.seqs"));
    let text = "c1,A,START,1\nc1,A,END,2\nc1,B,START,3\nc1,B,END,4\n";
    std::fs::write(&fm, format!("{text}{}", text.replace("c1", "c2"))).unwrap();
    let seqs = seqs.to_str().unwrap();
    assert!(procmine(&["convert", fm.to_str().unwrap(), seqs])
        .status
        .success());
    let refusal = |path: &str, format: &str| {
        format!(
            "{path}: --follow reads flowmark only, and this log is {format} by its \
             extension (pass --format flowmark to read it as flowmark)"
        )
    };
    let (txt, jsonl, xes) = (dir.join("x.txt"), dir.join("x.jsonl"), dir.join("x.xes"));
    let (txt, jsonl, xes) = (
        txt.to_str().unwrap(),
        jsonl.to_str().unwrap(),
        xes.to_str().unwrap(),
    );
    for (args, expect) in [
        (vec!["info", seqs], Ok("executions:  2".to_string())),
        (vec!["mine", seqs], Ok("(2 executions,".to_string())),
        (
            vec!["info", seqs, "--format", "flowmark"],
            Err("comma-separated".to_string()),
        ),
        (vec!["mine", "--follow", seqs], Err(refusal(seqs, "seqs"))),
        (vec!["mine", "--follow", txt], Err(refusal(txt, "seqs"))),
        (
            vec!["mine", "--follow", jsonl],
            Err(refusal(jsonl, "jsonl")),
        ),
        (vec!["mine", "--follow", xes], Err(refusal(xes, "xes"))),
        (
            vec!["mine", "--follow", seqs, "--format", "flowmark"],
            Err("comma-separated".to_string()),
        ),
    ] {
        let out = procmine(&args);
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        match expect {
            Ok(needle) => assert!(out.status.success() && stdout.contains(&needle), "{stderr}"),
            Err(needle) => assert!(
                !out.status.success() && stderr.contains(&needle),
                "{stderr}"
            ),
        }
    }
}

#[test]
fn stats_json_matches_mined_model() {
    let dir = tmpdir("stats");
    let log = dir.join("log.fm");
    let stats = dir.join("stats.json");
    procmine(&[
        "generate",
        "--preset",
        "graph10",
        "--executions",
        "200",
        "--seed",
        "11",
        "-o",
        log.to_str().unwrap(),
    ]);
    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--stats",
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();

    // The human table lists codec tallies, stages, and counters.
    assert!(text.contains("codec: "), "{text}");
    assert!(text.contains("count_pairs"), "{text}");
    assert!(text.contains("executions_scanned"), "{text}");

    let edge_lines = text
        .lines()
        .filter(|l| l.starts_with("  ") && l.contains(" -> "))
        .count() as u64;

    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    let counters = json.get("counters").expect("counters object");
    assert_eq!(
        counters.get("executions_scanned").unwrap().as_u64(),
        Some(200)
    );
    assert_eq!(
        counters.get("edges_final").unwrap().as_u64(),
        Some(edge_lines),
        "stats edges_final must equal the edges the CLI printed"
    );
    let codec = json.get("codec").expect("codec object");
    assert_eq!(codec.get("executions_parsed").unwrap().as_u64(), Some(200));
    assert_eq!(
        codec.get("bytes_read").unwrap().as_u64(),
        Some(std::fs::metadata(&log).unwrap().len()),
        "codec must account for every byte of the log file"
    );
    for stage in ["lower", "count_pairs", "prune", "reduce", "assemble"] {
        assert!(
            json.get("stages_ns").unwrap().get(stage).is_some(),
            "missing stage {stage}"
        );
    }
    // At the default threshold the marking pass reduces one execution
    // per distinct activity set, recycling its arena before each, so
    // the arena section must report one reset per set and nonzero bytes.
    let parsed = procmine_log::codec::flowmark::read_log(std::io::BufReader::new(
        std::fs::File::open(&log).unwrap(),
    ))
    .unwrap();
    let sets: std::collections::HashSet<Vec<usize>> = parsed
        .executions()
        .iter()
        .map(|e| {
            let mut set: Vec<usize> = e.instances().iter().map(|i| i.activity.index()).collect();
            set.sort_unstable();
            set
        })
        .collect();
    assert!(sets.len() < 200, "the log should repeat activity sets");
    let arena = json.get("arena").expect("arena object");
    assert_eq!(
        arena.get("resets").unwrap().as_u64(),
        Some(sets.len() as u64)
    );
    assert!(arena.get("bytes").unwrap().as_u64().unwrap() > 0);
    assert!(arena.get("high_water_bytes").unwrap().as_u64().unwrap() > 0);
}

#[test]
fn stats_json_top_level_keys_keep_their_order() {
    let dir = tmpdir("stats-key-order");
    let log = dir.join("log.fm");
    generate_log(&log, "30", "43");
    let orders = dir.join("orders.fm");
    let out = procmine(&[
        "generate",
        "--preset",
        "order",
        "--engine",
        "conditions",
        "--executions",
        "60",
        "-o",
        orders.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let model = dir.join("model.json");
    let log = log.to_str().unwrap();
    let out = procmine(&["mine", log, "--json", model.to_str().unwrap()]);
    assert!(out.status.success());

    let mine_keys: &[&str] = &[
        "codec",
        "ingest",
        "counters",
        "stages_ns",
        "stages_wall_ns",
        "arena",
        "trace",
    ];
    let cases: [(&[&str], &[&str]); 4] = [
        (&["mine", log], mine_keys),
        (&["mine", "--follow", log], mine_keys),
        (
            &["check", model.to_str().unwrap(), log],
            &["codec", "ingest", "counters", "timers_ns", "trace"],
        ),
        (
            &["conditions", orders.to_str().unwrap()],
            &[
                "codec",
                "ingest",
                "counters",
                "stages_ns",
                "stages_wall_ns",
                "arena",
                "classify",
                "trace",
            ],
        ),
    ];
    let stats = dir.join("stats.json");
    for (args, keys) in cases {
        let mut args = args.to_vec();
        args.extend(["--stats-json", stats.to_str().unwrap()]);
        let out = procmine(&args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
        let serde_json::Value::Map(pairs) = json else {
            panic!("{args:?}: stats are not a JSON object");
        };
        let in_file_order: Vec<String> = pairs
            .iter()
            .map(|(k, _)| match k {
                serde_json::Value::Str(k) => k.clone(),
                other => panic!("non-string key {other:?}"),
            })
            .collect();
        assert_eq!(in_file_order, keys, "{args:?}");
    }
}

#[test]
fn follow_stats_report_miner_and_codec_counters() {
    let dir = tmpdir("follow-stats");
    let log = dir.join("log.fm");
    let stats = dir.join("stats.json");
    procmine(&[
        "generate",
        "--preset",
        "uwi",
        "--executions",
        "60",
        "--seed",
        "9",
        "-o",
        log.to_str().unwrap(),
    ]);
    let out = procmine(&[
        "mine",
        "--follow",
        log.to_str().unwrap(),
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    let counters = json.get("counters").expect("counters object");
    assert_eq!(
        counters.get("executions_scanned").unwrap().as_u64(),
        Some(60)
    );
    let codec = json.get("codec").expect("codec object");
    assert_eq!(codec.get("executions_parsed").unwrap().as_u64(), Some(60));
    assert_eq!(
        codec.get("bytes_read").unwrap().as_u64(),
        Some(std::fs::metadata(&log).unwrap().len()),
        "the follow codec must account for every byte"
    );
}

#[test]
fn check_stats_report_conformance_counters() {
    let dir = tmpdir("check-stats");
    let log = dir.join("log.fm");
    let model = dir.join("model.json");
    let stats = dir.join("stats.json");
    procmine(&[
        "generate",
        "--preset",
        "graph10",
        "--executions",
        "150",
        "--seed",
        "5",
        "-o",
        log.to_str().unwrap(),
    ]);
    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--json",
        model.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let out = procmine(&[
        "check",
        model.to_str().unwrap(),
        log.to_str().unwrap(),
        "--stats",
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("conformance counter"), "{text}");
    assert!(text.contains("executions_checked"), "{text}");
    assert!(text.contains("conformal"), "{text}");

    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    let counters = json.get("counters").expect("counters object");
    assert_eq!(
        counters.get("executions_checked").unwrap().as_u64(),
        Some(150)
    );
    assert_eq!(
        counters.get("consistent_executions").unwrap().as_u64(),
        Some(150),
        "a model mined from this log must fit all of it"
    );
    let timers = json.get("timers_ns").expect("timers_ns object");
    for timer in ["closure", "scc", "execution_checks"] {
        assert!(timers.get(timer).is_some(), "missing timer {timer}");
    }
    assert_eq!(
        json.get("codec")
            .unwrap()
            .get("bytes_read")
            .unwrap()
            .as_u64(),
        Some(std::fs::metadata(&log).unwrap().len()),
        "check --stats must count every byte of the log it read"
    );
}

#[test]
fn parallel_mine_stats_include_wall_column() {
    let dir = tmpdir("wall-stats");
    let log = dir.join("log.fm");
    let stats = dir.join("stats.json");
    procmine(&[
        "generate",
        "--preset",
        "graph10",
        "--executions",
        "300",
        "--seed",
        "13",
        "-o",
        log.to_str().unwrap(),
    ]);
    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--threads",
        "2",
        "--stats",
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("cpu/wall"), "{text}");

    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    let wall = json.get("stages_wall_ns").expect("stages_wall_ns object");
    let wall_of = |stage: &str| wall.get(stage).unwrap().as_u64().unwrap();
    assert!(wall_of("count_pairs") > 0, "barrier stage must be timed");
    assert!(wall_of("reduce") > 0, "barrier stage must be timed");
    assert_eq!(wall_of("lower"), 0, "non-barrier stages have no wall time");

    // The parallel run must still agree with the serial miner.
    let serial = procmine(&["mine", log.to_str().unwrap()]);
    let edges = |out: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(out)
            .lines()
            .filter(|l| l.starts_with("  ") && l.contains(" -> "))
            .map(str::to_string)
            .collect()
    };
    let mut a = edges(&serial.stdout);
    let mut b = edges(&out.stdout);
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn check_reports_unknown_activities_without_panicking() {
    let dir = tmpdir("foreign-check");
    let train = dir.join("train.seqs");
    let foreign = dir.join("foreign.seqs");
    let model = dir.join("model.json");
    std::fs::write(&train, "A B C\nA B C\nA C\n").unwrap();
    std::fs::write(&foreign, "A B C\nA Zed C\n").unwrap();

    let out = procmine(&[
        "mine",
        train.to_str().unwrap(),
        "--format",
        "seqs",
        "--json",
        model.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Plain and instrumented paths must both diagnose, not panic.
    for extra in [&[][..], &["--stats"][..]] {
        let mut args = vec![
            "check",
            model.to_str().unwrap(),
            foreign.to_str().unwrap(),
            "--format",
            "seqs",
        ];
        args.extend_from_slice(extra);
        let out = procmine(&args);
        assert!(!out.status.success(), "a foreign log is not conformal");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("not conformal"), "{text}");
        assert!(text.contains("unknown activity: Zed"), "{text}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn conditions_stats_report_classify_counters() {
    let dir = tmpdir("cond-stats");
    let log = dir.join("orders.fm");
    let stats = dir.join("stats.json");
    procmine(&[
        "generate",
        "--preset",
        "order",
        "--engine",
        "conditions",
        "--executions",
        "200",
        "--seed",
        "2",
        "-o",
        log.to_str().unwrap(),
    ]);
    let out = procmine(&[
        "conditions",
        log.to_str().unwrap(),
        "--stats",
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("classify counter"), "{text}");
    assert!(text.contains("trees_fitted"), "{text}");

    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    let classify = json.get("classify").expect("classify object");
    let counters = classify.get("counters").expect("classify counters");
    let edge_lines = text
        .lines()
        .filter(|l| !l.starts_with(' ') && l.contains(" -> "))
        .count() as u64;
    assert_eq!(
        counters.get("edges_considered").unwrap().as_u64(),
        Some(edge_lines),
        "every printed edge must be counted"
    );
    assert!(counters.get("trees_fitted").unwrap().as_u64().unwrap() > 0);
    assert!(
        classify
            .get("timers_ns")
            .unwrap()
            .get("learn")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );
    // Miner fields ride along at the top level.
    assert!(json.get("counters").is_some());
    assert!(json.get("stages_ns").is_some());
}

#[test]
fn bad_flags_are_reported() {
    let out = procmine(&["mine", "--definitely-not-a-flag"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    let out = procmine(&["generate", "--preset", "nope"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown preset"));
}

/// A small valid flowmark log (two executions of A then B) with one
/// garbage line spliced into the middle.
fn corrupted_flowmark(dir: &std::path::Path) -> PathBuf {
    let log = dir.join("corrupt.fm");
    std::fs::write(
        &log,
        "case1,A,START,1\n\
         case1,A,END,2\n\
         this line is not an event record\n\
         case1,B,START,3\n\
         case1,B,END,4\n\
         case2,A,START,5\n\
         case2,A,END,6\n\
         case2,B,START,7\n\
         case2,B,END,8\n",
    )
    .unwrap();
    log
}

#[test]
fn mine_aborts_on_corruption_without_recover() {
    let dir = tmpdir("strict-corrupt");
    let log = corrupted_flowmark(&dir);
    let out = procmine(&["mine", log.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 3"), "{err}");
}

#[test]
fn mine_recover_skips_corruption_and_reports() {
    let dir = tmpdir("recover-corrupt");
    let log = corrupted_flowmark(&dir);
    let out = procmine(&["mine", log.to_str().unwrap(), "--recover"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 executions"), "{text}");
    assert!(text.contains("A -> B"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1 decode errors"), "{err}");
}

#[test]
fn mine_max_errors_budget_is_enforced() {
    let dir = tmpdir("max-errors");
    let log = corrupted_flowmark(&dir);
    // A budget of 1 tolerates the single bad line...
    let out = procmine(&["mine", log.to_str().unwrap(), "--max-errors", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // ...but a budget of 0 rejects it.
    let out = procmine(&["mine", log.to_str().unwrap(), "--max-errors", "0"]);
    assert!(!out.status.success());
}

#[test]
fn mine_recover_ingest_lands_in_stats_json() {
    let dir = tmpdir("recover-stats");
    let log = corrupted_flowmark(&dir);
    let stats = dir.join("stats.json");
    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--recover",
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    let ingest = json.get("ingest").expect("ingest key present");
    assert_eq!(ingest.get("errors_total").unwrap().as_u64(), Some(1));
    assert_eq!(ingest.get("records_skipped").unwrap().as_u64(), Some(1));
}

#[test]
fn check_recovers_from_corruption() {
    let dir = tmpdir("check-recover");
    let log = corrupted_flowmark(&dir);
    let model = dir.join("model.json");
    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--recover",
        "--json",
        model.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    // Strict check aborts on the bad line; --recover passes.
    let out = procmine(&["check", model.to_str().unwrap(), log.to_str().unwrap()]);
    assert!(!out.status.success());
    let out = procmine(&[
        "check",
        model.to_str().unwrap(),
        log.to_str().unwrap(),
        "--recover",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn mine_deadline_ms_aborts_mining() {
    let dir = tmpdir("deadline");
    let log = dir.join("big.fm");
    let out = procmine(&[
        "generate",
        "--preset",
        "graph10",
        "--executions",
        "20000",
        "-o",
        log.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = procmine(&["mine", log.to_str().unwrap(), "--deadline-ms", "1"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("deadline"), "{err}");
}

#[test]
fn mine_trace_writes_chrome_trace_with_worker_lanes() {
    let dir = tmpdir("trace");
    let log = dir.join("log.fm");
    let trace = dir.join("trace.json");
    let out = procmine(&[
        "generate",
        "--preset",
        "graph10",
        "--executions",
        "400",
        "--seed",
        "3",
        "-o",
        log.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--threads",
        "4",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = match json.get("traceEvents") {
        Some(serde_json::Value::Seq(events)) => events.clone(),
        other => panic!("traceEvents missing: {other:?}"),
    };
    let names: Vec<String> = events
        .iter()
        .filter(|e| matches!(e.get("ph"), Some(serde_json::Value::Str(p)) if p == "X"))
        .filter_map(|e| match e.get("name") {
            Some(serde_json::Value::Str(n)) => Some(n.clone()),
            _ => None,
        })
        .collect();
    // Codec ingestion, the parallel miner root, and per-worker spans
    // all land in one trace file.
    for expected in ["ingest.flowmark", "mine.parallel", "count_pairs.worker"] {
        assert!(
            names.iter().any(|n| n == expected),
            "span `{expected}` missing from {names:?}"
        );
    }
    // Worker spans occupy lanes above the main thread.
    let worker_tids: Vec<u64> = events
        .iter()
        .filter(|e| {
            matches!(e.get("name"), Some(serde_json::Value::Str(n)) if n == "count_pairs.worker")
        })
        .filter_map(|e| e.get("tid").and_then(serde_json::Value::as_u64))
        .collect();
    assert!(
        worker_tids.iter().all(|&t| t >= 1),
        "worker spans on the main lane: {worker_tids:?}"
    );
}

#[test]
fn mine_without_trace_flag_writes_no_trace_file() {
    let dir = tmpdir("no-trace");
    let log = dir.join("log.fm");
    procmine(&[
        "generate",
        "--preset",
        "upload",
        "--executions",
        "50",
        "-o",
        log.to_str().unwrap(),
    ]);
    let out = procmine(&["mine", log.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(!dir.join("trace.json").exists());
}

#[test]
fn check_json_emits_machine_readable_report() {
    let dir = tmpdir("check-json");
    let log = dir.join("log.fm");
    let model = dir.join("model.json");
    procmine(&[
        "generate",
        "--preset",
        "graph10",
        "--executions",
        "120",
        "--seed",
        "9",
        "-o",
        log.to_str().unwrap(),
    ]);
    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--json",
        model.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    // Conformal case: exit 0, "conformal": true, empty violation lists.
    let out = procmine(&[
        "check",
        model.to_str().unwrap(),
        log.to_str().unwrap(),
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report: serde_json::Value = serde_json::from_str(&stdout)
        .unwrap_or_else(|e| panic!("check --json stdout must be pure JSON ({e}): {stdout}"));
    assert!(matches!(
        report.get("conformal"),
        Some(serde_json::Value::Bool(true))
    ));
    for list in [
        "missing_dependencies",
        "spurious_dependencies",
        "unknown_activities",
        "inconsistent_executions",
    ] {
        assert!(
            matches!(report.get(list), Some(serde_json::Value::Seq(v)) if v.is_empty()),
            "{list} must be an empty array: {stdout}"
        );
    }

    // Non-conformal case (foreign log): nonzero exit, but the report
    // still lands on stdout with the offending activities listed.
    let foreign = dir.join("foreign.fm");
    procmine(&[
        "generate",
        "--preset",
        "upload",
        "--executions",
        "30",
        "-o",
        foreign.to_str().unwrap(),
    ]);
    let out = procmine(&[
        "check",
        model.to_str().unwrap(),
        foreign.to_str().unwrap(),
        "--json",
    ]);
    assert!(!out.status.success(), "foreign log must fail the check");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report: serde_json::Value = serde_json::from_str(&stdout).unwrap();
    assert!(matches!(
        report.get("conformal"),
        Some(serde_json::Value::Bool(false))
    ));
}

#[test]
fn check_trace_covers_conformance_stages() {
    let dir = tmpdir("check-trace");
    let log = dir.join("log.fm");
    let model = dir.join("model.json");
    let trace = dir.join("trace.json");
    procmine(&[
        "generate",
        "--preset",
        "graph10",
        "--executions",
        "100",
        "-o",
        log.to_str().unwrap(),
    ]);
    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--json",
        model.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = procmine(&[
        "check",
        model.to_str().unwrap(),
        log.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&trace).unwrap();
    let _: serde_json::Value = serde_json::from_str(&text).expect("trace parses");
    for span in ["check_conformance", "closure", "execution_checks"] {
        assert!(text.contains(&format!("\"name\":\"{span}\"")), "{span}");
    }
}

// ---------------------------------------------------------------------------
// Broken-pipe behaviour (`procmine … | head`).
// ---------------------------------------------------------------------------

/// Exit status for a stdout closed mid-write: 128 + SIGPIPE.
const SIGPIPE_EXIT: i32 = 141;

/// Runs the binary with stdout piped, immediately closes the read end,
/// and returns (exit code, stderr). Any write to stdout after the close
/// hits EPIPE.
fn run_with_closed_stdout(args: &[&str]) -> (Option<i32>, String) {
    use std::io::Read;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_procmine"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    drop(child.stdout.take()); // close the read end: writes now EPIPE
    let mut stderr = String::new();
    if let Some(mut err) = child.stderr.take() {
        err.read_to_string(&mut stderr).unwrap();
    }
    let status = child.wait().unwrap();
    (status.code(), stderr)
}

#[test]
fn generate_to_closed_stdout_exits_quietly() {
    // Enough output to overflow any pipe buffer, so a write is
    // guaranteed to fail with EPIPE after the reader is gone.
    let (code, stderr) = run_with_closed_stdout(&[
        "generate",
        "--preset",
        "graph10",
        "--executions",
        "5000",
        "--seed",
        "7",
    ]);
    assert_eq!(code, Some(SIGPIPE_EXIT), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "panic banner: {stderr}");
    assert!(
        !stderr.contains("RUST_BACKTRACE"),
        "backtrace hint: {stderr}"
    );
}

#[test]
fn mine_to_closed_stdout_does_not_panic() {
    let dir = tmpdir("epipe-mine");
    let log = dir.join("g10.fm");
    let out = procmine(&[
        "generate",
        "--preset",
        "graph10",
        "--executions",
        "200",
        "--seed",
        "7",
        "-o",
        log.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let (code, stderr) = run_with_closed_stdout(&["mine", log.to_str().unwrap()]);
    // Small outputs may complete before the first failed write is
    // attempted; both a clean exit and the SIGPIPE status are fine.
    // What must never happen is a panic.
    assert!(
        code == Some(0) || code == Some(SIGPIPE_EXIT),
        "unexpected exit {code:?}, stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "panic banner: {stderr}");
}

#[test]
fn help_to_closed_stdout_does_not_panic() {
    let (code, stderr) = run_with_closed_stdout(&["help"]);
    assert!(
        code == Some(0) || code == Some(SIGPIPE_EXIT),
        "unexpected exit {code:?}, stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "panic banner: {stderr}");
}

// --- mine --follow ---------------------------------------------------

fn edge_lines(out: &[u8]) -> Vec<String> {
    let mut lines: Vec<String> = String::from_utf8_lossy(out)
        .lines()
        .filter(|l| l.starts_with("  ") && l.contains(" -> "))
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

#[test]
fn follow_mine_matches_batch() {
    let dir = tmpdir("follow");
    let log = dir.join("log.fm");
    procmine(&[
        "generate",
        "--preset",
        "graph10",
        "--executions",
        "150",
        "--seed",
        "11",
        "-o",
        log.to_str().unwrap(),
    ]);
    let batch = procmine(&["mine", log.to_str().unwrap()]);
    let follow = procmine(&["mine", "--follow", log.to_str().unwrap()]);
    assert!(
        batch.status.success() && follow.status.success(),
        "batch: {}\nfollow: {}",
        String::from_utf8_lossy(&batch.stderr),
        String::from_utf8_lossy(&follow.stderr)
    );
    assert_eq!(edge_lines(&batch.stdout), edge_lines(&follow.stdout));
}

#[test]
fn follow_reads_stdin_and_reports_stats_json() {
    use std::io::Write;
    use std::process::Stdio;
    let dir = tmpdir("follow-stdin");
    let log = dir.join("log.fm");
    let stats = dir.join("stats.json");
    procmine(&[
        "generate",
        "--preset",
        "uwi",
        "--executions",
        "80",
        "--seed",
        "5",
        "-o",
        log.to_str().unwrap(),
    ]);
    let text = std::fs::read(&log).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_procmine"))
        .args([
            "mine",
            "--follow",
            "-",
            "--stats-json",
            stats.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(&text).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let batch = procmine(&["mine", log.to_str().unwrap()]);
    assert_eq!(edge_lines(&batch.stdout), edge_lines(&out.stdout));

    let json = std::fs::read_to_string(&stats).unwrap();
    assert!(json.contains("\"codec\""), "{json}");
    assert!(json.contains("\"cases_evicted\""), "{json}");
}

#[test]
fn follow_assembles_interleaved_cases_that_break_contiguous_stream() {
    let dir = tmpdir("follow-interleave");
    let log = dir.join("interleaved.fm");
    // Two cases interleaved record-by-record: contiguous grouping would
    // split each into two fragments.
    std::fs::write(
        &log,
        "p1,A,START,0\n\
         p2,A,START,0\n\
         p1,A,END,1\n\
         p2,A,END,1\n\
         p1,B,START,2\n\
         p2,B,START,2\n\
         p1,B,END,3\n\
         p2,B,END,3\n",
    )
    .unwrap();
    let follow = procmine(&["mine", "--follow", log.to_str().unwrap()]);
    assert!(
        follow.status.success(),
        "{}",
        String::from_utf8_lossy(&follow.stderr)
    );
    let text = String::from_utf8_lossy(&follow.stdout);
    assert!(text.contains("2 executions"), "{text}");
    assert!(text.contains("A -> B"), "{text}");
}

#[test]
fn follow_snapshot_every_emits_interim_snapshots() {
    let dir = tmpdir("follow-snap");
    let log = dir.join("log.fm");
    procmine(&[
        "generate",
        "--preset",
        "uwi",
        "--executions",
        "60",
        "--seed",
        "9",
        "-o",
        log.to_str().unwrap(),
    ]);
    let out = procmine(&[
        "mine",
        "--follow",
        log.to_str().unwrap(),
        "--snapshot-every",
        "50",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("snapshot @"), "{err}");
}

#[test]
fn follow_flag_validation() {
    let dir = tmpdir("follow-flags");
    let log = dir.join("log.fm");
    procmine(&[
        "generate",
        "--preset",
        "uwi",
        "--executions",
        "10",
        "-o",
        log.to_str().unwrap(),
    ]);
    let path = log.to_str().unwrap();
    // Incompatible combinations are rejected up front.
    for extra in [&["--check"][..], &["--threads", "4"][..]] {
        let mut args = vec!["mine", "--follow", path];
        args.extend_from_slice(extra);
        let out = procmine(&args);
        assert!(!out.status.success(), "--follow {extra:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("follow"), "{err}");
    }
    // Follow-only flags require --follow.
    let out = procmine(&["mine", path, "--snapshot-every", "10"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--follow"), "{err}");
}

// --- mine --follow --checkpoint --------------------------------------

/// Splits flowmark `text` near the middle at a *case boundary* (first
/// field changes between consecutive lines), so neither half tears a
/// case apart — the final checkpoint of a clean session closes all
/// open cases, so a torn case would legitimately split into fragments.
fn split_at_case_boundary(text: &str) -> (String, String) {
    let lines: Vec<&str> = text.lines().collect();
    fn case_of(l: &str) -> &str {
        l.split(',').next().unwrap_or("")
    }
    let mut cut = lines.len() / 2;
    while cut < lines.len() && case_of(lines[cut - 1]) == case_of(lines[cut]) {
        cut += 1;
    }
    let head: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
    let tail: String = lines[cut..].iter().map(|l| format!("{l}\n")).collect();
    (head, tail)
}

#[test]
fn follow_checkpoint_resume_across_restart_matches_batch() {
    let dir = tmpdir("follow-ckpt");
    let full = dir.join("full.fm");
    let live = dir.join("live.fm");
    let ck = dir.join("mine.ckpt");
    procmine(&[
        "generate",
        "--preset",
        "graph10",
        "--executions",
        "150",
        "--seed",
        "13",
        "-o",
        full.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&full).unwrap();
    let (head, tail) = split_at_case_boundary(&text);
    assert!(!head.is_empty() && !tail.is_empty());

    // Session 1: mine the first half, checkpointing along the way.
    std::fs::write(&live, &head).unwrap();
    let first = procmine(&[
        "mine",
        "--follow",
        live.to_str().unwrap(),
        "--checkpoint",
        ck.to_str().unwrap(),
        "--checkpoint-every",
        "25",
    ]);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let err = String::from_utf8_lossy(&first.stderr);
    assert!(err.contains("checkpoint @"), "{err}");
    assert!(ck.exists(), "checkpoint file written");

    // The log grows while the miner is down; session 2 resumes from
    // the saved position and only reads the tail.
    std::fs::write(&live, format!("{head}{tail}")).unwrap();
    let second = procmine(&[
        "mine",
        "--follow",
        live.to_str().unwrap(),
        "--checkpoint",
        ck.to_str().unwrap(),
        "--checkpoint-every",
        "25",
    ]);
    assert!(
        second.status.success(),
        "{}",
        String::from_utf8_lossy(&second.stderr)
    );
    let err = String::from_utf8_lossy(&second.stderr);
    assert!(err.contains("resuming from checkpoint @ byte"), "{err}");

    let batch = procmine(&["mine", full.to_str().unwrap()]);
    assert!(batch.status.success());
    assert_eq!(edge_lines(&batch.stdout), edge_lines(&second.stdout));
    let text = String::from_utf8_lossy(&second.stdout);
    assert!(text.contains("150 executions"), "{text}");
}

#[test]
fn follow_corrupt_checkpoint_refused_then_recover_cold_starts() {
    let dir = tmpdir("follow-ckpt-corrupt");
    let log = dir.join("log.fm");
    let ck = dir.join("mine.ckpt");
    procmine(&[
        "generate",
        "--preset",
        "uwi",
        "--executions",
        "60",
        "--seed",
        "3",
        "-o",
        log.to_str().unwrap(),
    ]);
    let first = procmine(&[
        "mine",
        "--follow",
        log.to_str().unwrap(),
        "--checkpoint",
        ck.to_str().unwrap(),
    ]);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );

    // Flip one byte mid-payload: the checksum must catch it.
    let mut bytes = std::fs::read(&ck).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&ck, &bytes).unwrap();

    let strict = procmine(&[
        "mine",
        "--follow",
        log.to_str().unwrap(),
        "--checkpoint",
        ck.to_str().unwrap(),
    ]);
    assert!(!strict.status.success(), "corrupt checkpoint must refuse");
    let err = String::from_utf8_lossy(&strict.stderr);
    assert!(err.contains("checkpoint"), "{err}");
    assert!(err.contains("--recover"), "hint missing: {err}");

    // Under --recover the same corruption degrades to a cold start and
    // the session still mines the whole log.
    let recovered = procmine(&[
        "mine",
        "--follow",
        log.to_str().unwrap(),
        "--checkpoint",
        ck.to_str().unwrap(),
        "--recover",
    ]);
    assert!(
        recovered.status.success(),
        "{}",
        String::from_utf8_lossy(&recovered.stderr)
    );
    let err = String::from_utf8_lossy(&recovered.stderr);
    assert!(err.contains("cold-starting"), "{err}");
    let batch = procmine(&["mine", log.to_str().unwrap()]);
    assert_eq!(edge_lines(&batch.stdout), edge_lines(&recovered.stdout));
}

#[test]
fn follow_checkpoint_options_mismatch_is_refused() {
    let dir = tmpdir("follow-ckpt-mismatch");
    let log = dir.join("log.fm");
    let ck = dir.join("mine.ckpt");
    procmine(&[
        "generate",
        "--preset",
        "uwi",
        "--executions",
        "40",
        "--seed",
        "2",
        "-o",
        log.to_str().unwrap(),
    ]);
    let first = procmine(&[
        "mine",
        "--follow",
        log.to_str().unwrap(),
        "--checkpoint",
        ck.to_str().unwrap(),
    ]);
    assert!(first.status.success());

    // Same checkpoint, different mining options: always refused, even
    // though the file itself is intact.
    let out = procmine(&[
        "mine",
        "--follow",
        log.to_str().unwrap(),
        "--checkpoint",
        ck.to_str().unwrap(),
        "--threshold",
        "5",
    ]);
    assert!(!out.status.success(), "options mismatch must refuse");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("noise threshold"), "{err}");
}

#[test]
fn follow_checkpoint_flag_validation() {
    let dir = tmpdir("follow-ckpt-flags");
    let log = dir.join("log.fm");
    let ck = dir.join("mine.ckpt");
    procmine(&[
        "generate",
        "--preset",
        "uwi",
        "--executions",
        "10",
        "-o",
        log.to_str().unwrap(),
    ]);
    // --checkpoint-every without --checkpoint.
    let out = procmine(&[
        "mine",
        "--follow",
        log.to_str().unwrap(),
        "--checkpoint-every",
        "10",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--checkpoint"), "{err}");
    // --checkpoint needs a seekable file, not stdin.
    let out = procmine(&[
        "mine",
        "--follow",
        "-",
        "--checkpoint",
        ck.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("resumable"), "{err}");
    // --checkpoint is follow-only.
    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--checkpoint",
        ck.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--follow"), "{err}");
}

// --- metrics export and `procmine report` -----------------------------

/// Generates a graph10 log at `path` with `executions` cases.
fn generate_log(path: &std::path::Path, executions: &str, seed: &str) {
    let out = procmine(&[
        "generate",
        "--preset",
        "graph10",
        "--executions",
        executions,
        "--seed",
        seed,
        "-o",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn mine_metrics_exports_prometheus_and_json() {
    let dir = tmpdir("metrics-mine");
    let log = dir.join("log.fm");
    generate_log(&log, "120", "3");

    // Prometheus exposition by extension.
    let prom = dir.join("metrics.prom");
    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--metrics",
        prom.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&prom).unwrap();
    assert!(
        text.contains("# TYPE procmine_stage_latency_ns histogram"),
        "{text}"
    );
    assert!(text.contains("procmine_ingest_bytes_total"), "{text}");
    assert!(text.contains("le=\"+Inf\""), "{text}");

    // JSON snapshot otherwise.
    let json = dir.join("metrics.json");
    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--metrics",
        json.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&json).unwrap();
    assert!(text.contains("procmine-metrics/v1"), "{text}");
    assert!(text.contains("procmine_stage_latency_ns"), "{text}");

    // Both validate, and both render through `report`.
    for path in [&prom, &json] {
        let out = procmine(&["report", path.to_str().unwrap(), "--validate"]);
        assert!(
            out.status.success(),
            "{}: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("valid"), "{text}");

        let out = procmine(&["report", path.to_str().unwrap()]);
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("procmine_stage_latency_ns"), "{text}");
    }
}

#[test]
fn check_and_conditions_accept_metrics_flag() {
    let dir = tmpdir("metrics-check");
    let log = dir.join("log.fm");
    let model = dir.join("model.json");
    generate_log(&log, "100", "13");
    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--json",
        model.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let metrics = dir.join("check.json");
    let out = procmine(&[
        "check",
        model.to_str().unwrap(),
        log.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("procmine_ingest_events_total"), "{text}");
    let out = procmine(&["report", metrics.to_str().unwrap(), "--validate"]);
    assert!(out.status.success());

    let metrics = dir.join("conditions.prom");
    let out = procmine(&[
        "conditions",
        log.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = procmine(&["report", metrics.to_str().unwrap(), "--validate"]);
    assert!(out.status.success());
}

#[test]
fn report_validate_catches_monotonicity_violations() {
    let dir = tmpdir("metrics-monotone");
    let small = dir.join("small.fm");
    let large = dir.join("large.fm");
    generate_log(&small, "40", "5");
    // The large log is a superset: the small log plus more cases from
    // the same seed would need generator support, so instead scrape the
    // same log twice — equal counters are monotone — and a strictly
    // smaller run for the violation direction.
    generate_log(&large, "200", "5");

    let first = dir.join("first.prom");
    let second = dir.join("second.prom");
    let out = procmine(&[
        "mine",
        large.to_str().unwrap(),
        "--metrics",
        first.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = procmine(&[
        "mine",
        large.to_str().unwrap(),
        "--metrics",
        second.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    // Same workload re-run: counters equal, monotone both ways.
    let out = procmine(&[
        "report",
        second.to_str().unwrap(),
        "--prev",
        first.to_str().unwrap(),
        "--validate",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A smaller workload after a larger one: ingest counters went
    // backwards, and the checker says so.
    let shrunk = dir.join("shrunk.prom");
    let out = procmine(&[
        "mine",
        small.to_str().unwrap(),
        "--metrics",
        shrunk.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = procmine(&[
        "report",
        shrunk.to_str().unwrap(),
        "--prev",
        first.to_str().unwrap(),
        "--validate",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("went backwards"), "{err}");
}

#[test]
fn report_rejects_malformed_exposition_and_snapshot() {
    let dir = tmpdir("metrics-reject");
    let bad_prom = dir.join("bad.prom");
    std::fs::write(&bad_prom, "procmine_x_total 4\n").unwrap();
    let out = procmine(&["report", bad_prom.to_str().unwrap(), "--validate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no TYPE"), "{err}");

    let bad_json = dir.join("bad.json");
    std::fs::write(&bad_json, "{\"schema\": \"other/v9\", \"metrics\": []}").unwrap();
    let out = procmine(&["report", bad_json.to_str().unwrap(), "--validate"]);
    assert!(!out.status.success());
}

#[test]
fn mine_stats_reports_dropped_spans_with_trace() {
    let dir = tmpdir("metrics-dropped");
    let log = dir.join("log.fm");
    let trace = dir.join("trace.json");
    let stats = dir.join("stats.json");
    generate_log(&log, "80", "17");
    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--stats",
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Nothing was dropped on this small run, so `--stats` stays silent
    // about spans (the line only appears when the ring buffer wrapped),
    // while `--stats-json` always carries the count — here zero.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("dropped at capacity"), "{text}");
    let json = std::fs::read_to_string(&stats).unwrap();
    assert!(json.contains("\"trace\":{\"dropped_spans\":0}"), "{json}");
}

#[test]
fn report_joins_trace_file() {
    let dir = tmpdir("metrics-trace-join");
    let log = dir.join("log.fm");
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.json");
    generate_log(&log, "80", "19");
    let out = procmine(&[
        "mine",
        log.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = procmine(&[
        "report",
        metrics.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("trace spans"), "{text}");
    assert!(text.contains("span(s)"), "{text}");
}

// --- mine --follow --metrics-every ------------------------------------

#[test]
fn follow_stdin_accepts_metrics_every() {
    use std::io::Write;
    use std::process::Stdio;
    let dir = tmpdir("follow-metrics-stdin");
    let log = dir.join("log.fm");
    let metrics = dir.join("follow.prom");
    generate_log(&log, "120", "23");
    let text = std::fs::read(&log).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_procmine"))
        .args([
            "mine",
            "--follow",
            "-",
            "--metrics",
            metrics.to_str().unwrap(),
            "--metrics-every",
            "50",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(&text).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The follow pipeline mined the same model as batch mode…
    let batch = procmine(&["mine", log.to_str().unwrap()]);
    assert_eq!(edge_lines(&batch.stdout), edge_lines(&out.stdout));

    // …and the export carries the follow-health families and survives
    // the validator.
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("procmine_follow_events_total"), "{text}");
    assert!(text.contains("procmine_follow_open_cases"), "{text}");
    let out = procmine(&["report", metrics.to_str().unwrap(), "--validate"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn follow_error_exit_leaves_valid_midstream_scrape() {
    // When the follow pipeline aborts (here: every case repeats
    // activities, so the flush finds no executions), the metrics file
    // on disk is whatever the last mid-stream cadence write left. That
    // scrape must be the raw exposition — not wrapped in a checkpoint
    // envelope — because Prometheus reads the file while we run.
    use std::io::Write;
    use std::process::Stdio;
    let dir = tmpdir("follow-metrics-error");
    let log = dir.join("log.fm");
    let metrics = dir.join("follow.prom");
    generate_log(&log, "60", "31");
    // Feeding the same log twice duplicates every case id, so each
    // case sees its activities repeat and is skipped as cyclic.
    let mut text = std::fs::read(&log).unwrap();
    let copy = text.clone();
    text.extend_from_slice(&copy);

    let mut child = Command::new(env!("CARGO_BIN_EXE_procmine"))
        .args([
            "mine",
            "--follow",
            "-",
            "--metrics",
            metrics.to_str().unwrap(),
            "--metrics-every",
            "25",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(&text).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success(), "duplicated-case follow should fail");

    let scrape = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        scrape.starts_with("# HELP"),
        "mid-stream scrape is not raw exposition:\n{}",
        &scrape[..scrape.len().min(120)]
    );
    assert!(!scrape.contains("PMCKPT"), "checkpoint envelope leaked");
    let out = procmine(&["report", metrics.to_str().unwrap(), "--validate"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn follow_metrics_cadence_writes_midstream_scrapes() {
    let dir = tmpdir("follow-metrics-file");
    let log = dir.join("log.fm");
    let metrics = dir.join("follow.json");
    generate_log(&log, "150", "29");
    let out = procmine(&[
        "mine",
        "--follow",
        log.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
        "--metrics-every",
        "100",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("procmine-metrics/v1"), "{text}");
    assert!(text.contains("procmine_checkpoint"), "{text}");
    let out = procmine(&["report", metrics.to_str().unwrap(), "--validate"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn metrics_flag_validation() {
    let dir = tmpdir("metrics-flags");
    let log = dir.join("log.fm");
    generate_log(&log, "20", "31");
    let path = log.to_str().unwrap();

    // --metrics-every needs --metrics.
    let out = procmine(&["mine", "--follow", path, "--metrics-every", "10"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--metrics"), "{err}");

    // --metrics-every is follow-only.
    let out = procmine(&["mine", path, "--metrics-every", "10"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--follow"), "{err}");

    // report needs a file argument.
    let out = procmine(&["report"]);
    assert!(!out.status.success());
}

/// The report lines after the header, which names the path and the
/// time taken.
fn after_header(out: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(out)
        .lines()
        .skip(1)
        .map(str::to_string)
        .collect()
}

/// `mine --check` on a log whose mined model is not conformal: at
/// threshold 2 the one `B A` execution is noise to the miner, but the
/// replay still sees it. Auto picks the special miner; the general
/// miner reports the same.
#[test]
fn mine_check_reports_a_non_conformal_model() {
    let dir = tmpdir("check-failed");
    let log = dir.join("log.fm");
    std::fs::write(
        &log,
        "c1,A,START,0\nc1,A,END,1\nc1,B,START,2\nc1,B,END,3\n\
         c2,A,START,0\nc2,A,END,1\nc2,B,START,2\nc2,B,END,3\n\
         c3,B,START,0\nc3,B,END,1\nc3,A,START,2\nc3,A,END,3\n",
    )
    .unwrap();
    for (algorithm, mined) in [("auto", "SpecialDag"), ("general", "GeneralDag")] {
        let out = procmine(&[
            "mine",
            log.to_str().unwrap(),
            "--threshold",
            "2",
            "--check",
            "--algorithm",
            algorithm,
        ]);
        assert_eq!(out.status.code(), Some(1), "{algorithm}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(
            text.starts_with(&format!("mined `{}` with {mined}:", log.display())),
            "{text}"
        );
        assert_eq!(
            after_header(text.as_bytes()),
            [
                "  A -> B",
                "distinct routes: 1",
                "critical path:   A -> B",
                "mandatory:       A, B",
                "conformance: FAILED",
                "  spurious dependency: A -> B",
                "  inconsistent execution c3: [WrongInitiating { found: \"B\" }, \
                 WrongTerminating { found: \"A\" }, Unreachable { activity: \"A\" }, \
                 DependencyViolated { from: \"A\", to: \"B\" }]",
            ],
            "{algorithm}"
        );
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(
            err, "procmine: mined model is not conformal\n",
            "{algorithm}"
        );
    }
}

/// `mine /dev/stdin` reads a pipe, which cannot rewind: the Flowmark
/// reader groups the interleaved cases through its whole table from
/// the first line, and mines what `mine FILE` mines.
#[test]
fn mine_reads_an_interleaved_log_from_a_pipe() {
    use std::io::Write;
    use std::process::Stdio;
    let dir = tmpdir("mine-pipe");
    let grouped = dir.join("grouped.fm");
    generate_log(&grouped, "60", "41");
    // Deal the cases' lines out three cases at a time, one line of
    // each in turn.
    let text = std::fs::read_to_string(&grouped).unwrap();
    let mut cases: Vec<(String, Vec<&str>)> = Vec::new();
    for line in text.lines() {
        let case = line.split(',').next().unwrap().to_string();
        match cases.last_mut() {
            Some((name, lines)) if *name == case => lines.push(line),
            _ => cases.push((case, vec![line])),
        }
    }
    let mut interleaved = String::new();
    for group in cases.chunks(3) {
        let longest = group.iter().map(|(_, lines)| lines.len()).max().unwrap();
        for i in 0..longest {
            for (_, lines) in group {
                if let Some(line) = lines.get(i) {
                    interleaved.push_str(line);
                    interleaved.push('\n');
                }
            }
        }
    }
    let log = dir.join("interleaved.fm");
    std::fs::write(&log, &interleaved).unwrap();

    let from_file = procmine(&["mine", log.to_str().unwrap()]);
    assert!(from_file.status.success());
    let mut child = Command::new(env!("CARGO_BIN_EXE_procmine"))
        .args(["mine", "/dev/stdin", "--format", "flowmark"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(interleaved.as_bytes())
        .unwrap();
    let from_pipe = child.wait_with_output().unwrap();
    assert!(
        from_pipe.status.success(),
        "{}",
        String::from_utf8_lossy(&from_pipe.stderr)
    );
    assert!(after_header(&from_file.stdout).len() > 5);
    assert_eq!(
        after_header(&from_pipe.stdout),
        after_header(&from_file.stdout)
    );
    assert_eq!(from_pipe.stderr, from_file.stderr);
}
