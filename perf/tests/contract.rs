//! `BENCHMARK.json` and the suite's own tables must describe the same
//! benchmark, within the limits the benchmark contract sets.

use noftl_perf::json::Json;
use noftl_perf::suite::{Metric, END_TO_END, PER_LAYER};
use noftl_perf::workloads::{ops_per_second, NAMES};

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn check_metrics(list: &Json, table: &[Metric], bounded: bool) {
    let list = list.as_arr().expect("metric list");
    assert_eq!(list.len(), table.len());
    for (entry, m) in list.iter().zip(table) {
        let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap_or_default();
        assert_eq!(field("name"), m.name);
        assert_eq!(field("unit"), m.unit, "{}", m.name);
        assert_eq!(field("better"), m.better.as_str(), "{}", m.name);
        assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
        let keys = entry.as_obj().expect("metric object").len();
        if bounded {
            let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
            assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", m.name);
            assert_eq!(keys, 4, "{}", m.name);
        } else {
            assert_eq!(keys, 3, "{}", m.name);
        }
    }
}

#[test]
fn benchmark_json_matches_the_suite() {
    let b = benchmark();
    let keys: Vec<&str> = b
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let paths: Vec<&str> = b
        .get("paths")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["perf"]);
    let command: Vec<&str> = b
        .get("command")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"perf/Cargo.toml"));
    assert!(command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
    assert_eq!(command.last(), Some(&"run"));

    let seconds = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = b.get("workloads").unwrap().as_arr().unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, NAMES);
    for w in workloads {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
        assert_eq!(w.as_obj().unwrap().len(), 2);
        assert!(ops_per_second(w.get("name").and_then(Json::as_str).unwrap()).is_some());
    }

    check_metrics(b.get("end_to_end").unwrap(), &END_TO_END, true);
    check_metrics(b.get("per_layer").unwrap(), &PER_LAYER, false);
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));

    let mut all: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.name)
        .collect();
    all.extend(NAMES);
    let total = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), total, "a name is used twice");
}
