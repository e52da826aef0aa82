//! The request generator is a pure function of (profile, seed), draws
//! what it claims to draw, and the client's books follow from it.

use janus_benchmark::gen::{
    generate, Item, Profile, Zipf, BATCHES_PER_ROUND, ITEMS_PER_BATCH, TXNS_PER_ROUND,
};
use janus_benchmark::serve::SERVE_WORKLOADS;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    for profile in [Profile::UNIFORM, Profile::HOT] {
        let a = generate(profile, 20120611, 8);
        let b = generate(profile, 20120611, 8);
        let c = generate(profile, 20120612, 8);
        assert_eq!(a.wire(), b.wire());
        assert_eq!(a, b);
        assert_ne!(a.wire(), c.wire());
    }
}

#[test]
fn a_longer_pool_extends_a_shorter_one() {
    let short = generate(Profile::HOT, 7, 4);
    let long = generate(Profile::HOT, 7, 6);
    assert_eq!(short.rounds[..], long.rounds[..4]);
}

#[test]
fn serve_wal_streams_exactly_what_serve_uniform_streams() {
    let by_name = |name: &str| {
        SERVE_WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .expect("declared workload")
    };
    let (uniform, wal) = (by_name("serve-uniform"), by_name("serve-wal"));
    assert!(wal.wal && !uniform.wal);
    assert_eq!(
        generate(uniform.profile, 99, 16).wire(),
        generate(wal.profile, 99, 16).wire()
    );
    assert_ne!(
        generate(uniform.profile, 99, 16).wire(),
        generate(by_name("serve-hot").profile, 99, 16).wire()
    );
}

#[test]
fn wire_is_sixteen_batches_of_sixteen_tokens_and_a_drain() {
    let stream = generate(Profile::UNIFORM, 3, 5);
    for (r, round) in stream.rounds.iter().enumerate() {
        assert_eq!(round.items.len(), TXNS_PER_ROUND);
        let text = std::str::from_utf8(&round.wire).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), BATCHES_PER_ROUND + 1);
        assert_eq!(lines[BATCHES_PER_ROUND], "drain");
        for (b, line) in lines[..BATCHES_PER_ROUND].iter().enumerate() {
            let words: Vec<&str> = line.split(' ').collect();
            assert_eq!(words[0], "batch");
            assert_eq!(words[1], format!("r{r}.{b}"));
            let tokens: Vec<String> = round.items[b * ITEMS_PER_BATCH..][..ITEMS_PER_BATCH]
                .iter()
                .map(Item::token)
                .collect();
            assert_eq!(words[2..], tokens[..]);
        }
    }
}

#[test]
fn item_mix_amounts_and_ranges() {
    for profile in [Profile::UNIFORM, Profile::HOT] {
        let stream = generate(profile, 11, 64);
        let items: Vec<&Item> = stream.rounds.iter().flat_map(|r| &r.items).collect();
        let mut transfers = 0;
        for item in &items {
            let (accounts, amount) = match **item {
                Item::Transfer { src, dst, amt } => {
                    transfers += 1;
                    (vec![src, dst], amt)
                }
                Item::Add { acct, delta } => (vec![acct], delta),
            };
            assert!((1..=9).contains(&amount));
            assert!(accounts.iter().all(|a| (*a as usize) < profile.accounts));
        }
        let share = transfers as f64 / items.len() as f64;
        assert!((0.78..0.82).contains(&share), "transfer share {share}");
    }
}

#[test]
fn transfers_conserve_the_total() {
    let stream = generate(Profile::HOT, 5, 32);
    let mut model = vec![0i64; stream.accounts];
    let mut added = 0;
    for item in stream.rounds.iter().flat_map(|r| &r.items) {
        item.apply(&mut model, 3);
        if let Item::Add { delta, .. } = item {
            added += 3 * delta;
        }
    }
    assert_eq!(model.iter().sum::<i64>(), added);
}

#[test]
fn zipf_rank_frequencies() {
    let (n, s, draws) = (64, 1.2, 400_000);
    let zipf = Zipf::new(n, s);
    let mut rng = SmallRng::seed_from_u64(1);
    let mut counts = vec![0u32; n];
    for _ in 0..draws {
        counts[zipf.sample(&mut rng)] += 1;
    }
    assert!(counts.iter().all(|c| *c > 0), "every rank is reachable");
    let norm: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
    for k in [1usize, 2, 3, 4, 8, 16] {
        let expect = (k as f64).powf(-s) / norm;
        let got = f64::from(counts[k - 1]) / draws as f64;
        assert!(
            (got - expect).abs() / expect < 0.05,
            "rank {k}: expected {expect:.4}, got {got:.4}"
        );
    }
    // The head dominates: the top 4 of 64 ranks draw over half.
    let head: u32 = counts[..4].iter().sum();
    assert!(f64::from(head) / draws as f64 > 0.5);
    // And the hot profile really uses it for sources, not destinations.
    let stream = generate(Profile::HOT, 2, 64);
    let (mut src0, mut dst0, mut transfers) = (0, 0, 0);
    for item in stream.rounds.iter().flat_map(|r| &r.items) {
        if let Item::Transfer { src, dst, .. } = item {
            transfers += 1;
            src0 += u32::from(*src == 0);
            dst0 += u32::from(*dst == 0);
        }
    }
    assert!(f64::from(src0) / f64::from(transfers) > 0.2);
    assert!(f64::from(dst0) / f64::from(transfers) < 0.05);
}
