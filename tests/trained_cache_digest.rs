//! Trained caches are byte-stable: training every evaluation workload,
//! with and without sequence abstraction, serializes to exactly the text
//! pinned below.
//!
//! The pinned values are FNV-1a 64 digests of
//! `CommutativityCache::to_text()`. A change to the relational state
//! model, the persistent map, the miner or the abstraction that is meant
//! to be behaviour-preserving must leave every digest unchanged.
//!
//! To regenerate the constants (only when a change is *meant* to alter
//! what training learns), run
//!
//! ```text
//! cargo test --test trained_cache_digest -- --nocapture
//! ```
//!
//! at the commit whose caches are authoritative and copy the printed
//! `("<workload>", <abstraction>, 0x…)` lines into `PINNED`.

use janus::train::{train, TrainConfig};
use janus::workloads::{all_workloads, training_runs};

/// `(workload, use_abstraction, fnv1a64(to_text()))`.
const PINNED: [(&str, bool, u64); 10] = [
    ("jfilesync", true, 0x89a17dcc63ccb0de),
    ("jfilesync", false, 0xad6aba28c655b13d),
    ("jgrapht-1", true, 0x7a26d07fa12b9114),
    ("jgrapht-1", false, 0xeb9166f831e44140),
    ("jgrapht-2", true, 0x5c18af1b1c7b47bf),
    ("jgrapht-2", false, 0x3291c4cdf8dd4e48),
    ("pmd", true, 0x3bd221387240a5f5),
    ("pmd", false, 0x3461ab93db040009),
    ("weka", true, 0x2bf3d37f33d91678),
    ("weka", false, 0xbe7b465f035ed3dc),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn trained_caches_match_pinned_digests() {
    let mut got = Vec::new();
    for workload in all_workloads() {
        let runs = training_runs(workload.as_ref());
        for use_abstraction in [true, false] {
            let (cache, _) = train(
                &runs,
                TrainConfig {
                    use_abstraction,
                    verify_symbolic: false,
                },
            );
            let digest = fnv1a64(cache.to_text().as_bytes());
            println!(
                "    (\"{}\", {use_abstraction}, {digest:#018x}),",
                workload.name()
            );
            got.push((workload.name().to_string(), use_abstraction, digest));
        }
    }
    let want: Vec<(String, bool, u64)> = PINNED
        .iter()
        .map(|&(name, abs, digest)| (name.to_string(), abs, digest))
        .collect();
    assert_eq!(got, want, "a trained cache's text changed");
}
