//! Warm-server vs cold-CLI parity.
//!
//! The acceptance bar for the daemon: a warm `sj-server` answers
//! estimate requests **byte-identical** to the cold CLI, under at least
//! four concurrent clients. Estimates here are pure functions of the
//! statistics (the paper's Eq. 1–5 arithmetic), so residency must not
//! change a single output byte.

#![expect(
    clippy::panic,
    clippy::unwrap_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use sj_cli::run;
use std::path::PathBuf;

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_string()).collect()
}

/// A scratch directory private to one test of one process (tests in
/// this binary, and concurrent runs of it, must not race on shared
/// files); removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sjsel-parity-{}-{test}", std::process::id()));
        drop(std::fs::remove_dir_all(&dir));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    /// The path of `name` inside the scratch directory.
    fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        drop(std::fs::remove_dir_all(&self.0));
    }
}

/// Generates two datasets, tables `<prefix>_a` and `<prefix>_b`.
fn datasets(scratch: &Scratch, prefix: &str) -> (String, String) {
    let a_csv = scratch.file(&format!("{prefix}_a.csv"));
    let b_csv = scratch.file(&format!("{prefix}_b.csv"));
    run(&argv(&[
        "generate", "scrc", "--scale", "0.01", "--out", &a_csv,
    ]))
    .unwrap();
    run(&argv(&[
        "generate", "sura", "--scale", "0.01", "--out", &b_csv,
    ]))
    .unwrap();
    (a_csv, b_csv)
}

/// Boots a daemon over the given datasets on an OS-assigned port and
/// waits for readiness; returns the address and a join handle.
fn boot(
    scratch: &Scratch,
    files: &[&str],
    ready_name: &str,
    extra: &[&str],
) -> (
    String,
    std::thread::JoinHandle<Result<sj_cli::CliOutput, sj_cli::CliError>>,
) {
    let ready = scratch.file(ready_name);
    let mut args = vec!["serve".to_string()];
    args.extend(files.iter().map(|f| (*f).to_string()));
    args.extend(argv(&[
        "--level",
        "4",
        "--addr",
        "127.0.0.1:0",
        "--ready-file",
        &ready,
    ]));
    args.extend(argv(extra));
    let daemon = std::thread::spawn(move || run(&args));
    let ready_path = PathBuf::from(&ready);
    let mut tries = 0;
    let addr = loop {
        match std::fs::read_to_string(&ready_path) {
            Ok(s) if s.ends_with('\n') => break s.trim().to_string(),
            _ if tries > 500 => panic!("server never became ready"),
            _ => {
                tries += 1;
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    };
    (addr, daemon)
}

#[test]
fn warm_answers_are_byte_identical_to_cold_under_concurrency() {
    let scratch = Scratch::new("warm_cold");
    let (a_csv, b_csv) = datasets(&scratch, "parity");
    // Every family: each serves the daemon's estimates from its own
    // resident view (Euler from its counts).
    for kind in ["gh", "ph", "gh-basic", "euler"] {
        let kind_flag = ["--kind", kind];
        // Cold path: a full process-shaped run per request, statistics
        // rebuilt from the CSVs every time.
        let catalog_estimate = |json: &[&str]| {
            let mut args = vec!["catalog-estimate", &a_csv, &b_csv, "--level", "4"];
            args.extend(kind_flag);
            args.extend(json);
            run(&argv(&args)).unwrap()
        };
        let cold_text = catalog_estimate(&[]);
        let cold_json = catalog_estimate(&["--json"]);

        // Cold primary estimate over persisted statistics files.
        let hist = |csv: &str, side: &str| {
            let out = scratch.file(&format!("parity_{kind}_{side}.hist"));
            let mut args = vec!["build-histogram", csv, "--level", "4", "--out", &out];
            args.extend(kind_flag);
            run(&argv(&args)).unwrap();
            out
        };
        let (a_hist, b_hist) = (hist(&a_csv, "a"), hist(&b_csv, "b"));
        let cold_estimate = run(&argv(&["estimate", &a_hist, &b_hist])).unwrap();

        let (addr, daemon) = boot(
            &scratch,
            &[&a_csv, &b_csv],
            &format!("parity_{kind}_ready.txt"),
            &kind_flag,
        );

        // Six concurrent clients, each comparing every warm answer
        // against the cold output bytes.
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let (addr, cold_text, cold_json, cold_estimate) =
                    (&addr, &cold_text, &cold_json, &cold_estimate);
                scope.spawn(move || {
                    for _ in 0..5 {
                        let warm_text = run(&argv(&[
                            "client",
                            "--addr",
                            addr,
                            "catalog-estimate",
                            "parity_a",
                            "parity_b",
                        ]))
                        .unwrap();
                        assert_eq!(warm_text.stdout, cold_text.stdout, "{kind}: text parity");
                        assert_eq!(
                            warm_text.warnings, cold_text.warnings,
                            "{kind}: warning parity"
                        );

                        let warm_json = run(&argv(&[
                            "client",
                            "--addr",
                            addr,
                            "catalog-estimate",
                            "parity_a",
                            "parity_b",
                            "--json",
                        ]))
                        .unwrap();
                        assert_eq!(warm_json.stdout, cold_json.stdout, "{kind}: json parity");

                        let warm_estimate = run(&argv(&[
                            "client", "--addr", addr, "estimate", "parity_a", "parity_b",
                        ]))
                        .unwrap();
                        assert_eq!(
                            warm_estimate.stdout, cold_estimate.stdout,
                            "{kind}: estimate parity"
                        );
                    }
                });
            }
        });

        run(&argv(&["client", "--addr", &addr, "shutdown"])).unwrap();
        daemon.join().unwrap().unwrap();
    }
}

/// The full daemon lifecycle across a restart: mutate, compact (which
/// makes the source CSVs stale relative to the statistics), mutate
/// again, shut down — then a fresh daemon over the SAME original CSVs
/// must recover the exact state from the compaction snapshot, the base
/// envelope, and the pending WAL. This exact sequence used to fail
/// startup with "statistics cover N objects but the dataset has M".
#[test]
fn daemon_restart_after_mutations_and_compaction_recovers() {
    let scratch = Scratch::new("restart");
    let (a_csv, b_csv) = datasets(&scratch, "parity3");
    let stats_dir = scratch.file("stats");
    // Batch file: a slice of b's rectangles (guaranteed-valid data),
    // inserted before the restart and deleted again after it.
    let batch = scratch.file("parity3_batch.csv");
    let b_text = std::fs::read_to_string(&b_csv).unwrap();
    let slice: Vec<&str> = b_text.lines().take(50).collect();
    std::fs::write(&batch, format!("{}\n", slice.join("\n"))).unwrap();

    let stats_flag = ["--stats-dir", &stats_dir];
    let (addr, daemon) = boot(
        &scratch,
        &[&a_csv, &b_csv],
        "parity3_ready.txt",
        &stats_flag,
    );
    let estimate = |addr: &str| {
        run(&argv(&[
            "client",
            "--addr",
            addr,
            "estimate",
            "parity3_a",
            "parity3_b",
        ]))
        .unwrap()
    };
    let baseline = estimate(&addr);
    run(&argv(&[
        "client",
        "--addr",
        &addr,
        "insert-batch",
        "parity3_a",
        &batch,
    ]))
    .unwrap();
    assert_ne!(estimate(&addr).stdout, baseline.stdout);
    run(&argv(&["client", "--addr", &addr, "compact", "parity3_a"])).unwrap();
    // A post-compaction batch left pending in the WAL across the restart.
    run(&argv(&[
        "client",
        "--addr",
        &addr,
        "insert-batch",
        "parity3_b",
        &batch,
    ]))
    .unwrap();
    let pre_restart = estimate(&addr);
    run(&argv(&["client", "--addr", &addr, "shutdown"])).unwrap();
    daemon.join().unwrap().unwrap();
    let sd = std::path::Path::new(&stats_dir);
    assert!(
        sd.join("parity3_a.base").exists(),
        "compaction must leave a dataset snapshot"
    );
    assert!(
        sd.join("parity3_b.wal").exists(),
        "the pending batch must leave a WAL"
    );

    // Restart over the original CSVs: table a's statistics no longer
    // describe them (the folded inserts live only in the snapshot).
    let (addr, daemon) = boot(
        &scratch,
        &[&a_csv, &b_csv],
        "parity3_ready2.txt",
        &stats_flag,
    );
    assert_eq!(
        estimate(&addr).stdout,
        pre_restart.stdout,
        "restart must not change a single output byte"
    );
    // Deleting the inserted rectangles restores the baseline bytes.
    for table in ["parity3_a", "parity3_b"] {
        run(&argv(&[
            "client",
            "--addr",
            &addr,
            "delete-batch",
            table,
            &batch,
        ]))
        .unwrap();
    }
    assert_eq!(estimate(&addr).stdout, baseline.stdout);
    run(&argv(&["client", "--addr", &addr, "shutdown"])).unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn warm_server_reuses_saved_statistics_files() {
    let scratch = Scratch::new("saved_stats");
    let (a_csv, b_csv) = datasets(&scratch, "parity2");
    // Persist statistics under the file-stem naming convention.
    let stats_dir = scratch.file("stats");
    std::fs::create_dir_all(&stats_dir).unwrap();
    for (csv, stem) in [(&a_csv, "parity2_a"), (&b_csv, "parity2_b")] {
        run(&argv(&[
            "build-histogram",
            csv,
            "--level",
            "4",
            "--out",
            &format!("{stats_dir}/{stem}.hist"),
        ]))
        .unwrap();
    }

    let ready = scratch.file("ready.txt");
    let args = argv(&[
        "serve",
        &a_csv,
        &b_csv,
        "--level",
        "4",
        "--stats-dir",
        &stats_dir,
        "--addr",
        "127.0.0.1:0",
        "--ready-file",
        &ready,
    ]);
    let daemon = std::thread::spawn(move || run(&args));
    let mut tries = 0;
    let addr = loop {
        match std::fs::read_to_string(&ready) {
            Ok(s) if s.ends_with('\n') => break s.trim().to_string(),
            _ if tries > 500 => panic!("server never became ready"),
            _ => {
                tries += 1;
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    };

    // The daemon's answers over loaded statistics match the cold
    // catalog-estimate run over the same statistics directory.
    let cold = run(&argv(&[
        "catalog-estimate",
        &a_csv,
        &b_csv,
        "--level",
        "4",
        "--stats-dir",
        &stats_dir,
    ]))
    .unwrap();
    let warm = run(&argv(&[
        "client",
        "--addr",
        &addr,
        "catalog-estimate",
        "parity2_a",
        "parity2_b",
    ]))
    .unwrap();
    assert_eq!(warm.stdout, cold.stdout);
    assert!(warm.stdout.contains("tier primary"), "{}", warm.stdout);

    // A mutation and a compaction write only the daemon's base file: the
    // saved `.hist` keeps describing its CSV, so the cold path still
    // loads it and answers exactly as before.
    let saved = std::fs::read(format!("{stats_dir}/parity2_a.hist")).unwrap();
    let batch = scratch.file("parity2_batch.csv");
    let b_text = std::fs::read_to_string(&b_csv).unwrap();
    let slice: Vec<&str> = b_text.lines().take(50).collect();
    std::fs::write(&batch, format!("{}\n", slice.join("\n"))).unwrap();
    for op in [
        &["insert-batch", "parity2_a", batch.as_str()][..],
        &["compact", "parity2_a"][..],
    ] {
        let mut args = vec!["client", "--addr", &addr];
        args.extend_from_slice(op);
        run(&argv(&args)).unwrap();
    }
    assert!(
        std::fs::read(format!("{stats_dir}/parity2_a.hist")).unwrap() == saved,
        "compaction must not rewrite the saved statistics file"
    );
    let cold_after = run(&argv(&[
        "catalog-estimate",
        &a_csv,
        &b_csv,
        "--level",
        "4",
        "--stats-dir",
        &stats_dir,
    ]))
    .unwrap();
    assert!(
        cold_after.stdout.contains("tier primary"),
        "{}",
        cold_after.stdout
    );
    assert!(cold_after.warnings.is_empty(), "{:?}", cold_after.warnings);
    assert_eq!(cold_after.stdout, cold.stdout);

    run(&argv(&["client", "--addr", &addr, "shutdown"])).unwrap();
    daemon.join().unwrap().unwrap();
}
