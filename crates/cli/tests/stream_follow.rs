//! `stream follow` reads every store the system writes: the output of
//! `store ingest` and of `store compact` is followed group by group to its
//! seal, and the groups and records it sees match `store info`.

use std::process::Command;

/// Runs `ivnt` with the whitespace-separated `args`, then `paths`.
fn ivnt(args: &str, paths: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ivnt"))
        .args(args.split_whitespace())
        .args(paths)
        .output()
        .expect("ivnt runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args} failed: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The first `"key": N` of a JSON document (top-level fields precede the
/// nested arrays in every document read here).
fn json_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = json.find(&needle).expect(key) + needle.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect(key)
}

#[test]
fn follow_reads_ingested_and_compacted_stores_to_their_seal() {
    let dir = std::env::temp_dir();
    let ingested = dir.join(format!("ivnt-cli-follow-{}.ivns", std::process::id()));
    let compacted = dir.join(format!("ivnt-cli-follow-{}-c.ivns", std::process::id()));
    let (ingested, compacted) = (ingested.to_str().unwrap(), compacted.to_str().unwrap());
    let ingest = "store ingest --scenario syn --seed 7 --chunk-rows 1024 --chunks-per-group 4";
    ivnt(ingest, &[ingested]);
    ivnt(
        "store compact --chunk-rows 2048 --chunks-per-group 4",
        &[ingested, compacted],
    );
    for path in [ingested, compacted] {
        let info = ivnt("store info --json", &[path]);
        let follow = ivnt(
            "stream follow --scenario syn --seed 7 --signals syn_s0000 --once --json",
            &[path],
        );
        assert!(follow.contains("\"sealed\": true"), "{follow}");
        let groups = json_u64(&info, "groups");
        assert!(groups > 1, "{info}");
        assert_eq!(json_u64(&follow, "groups"), groups, "{path}");
        assert_eq!(
            json_u64(&follow, "records"),
            json_u64(&info, "rows"),
            "{path}"
        );
    }
    let _ = std::fs::remove_file(ingested);
    let _ = std::fs::remove_file(compacted);
}
