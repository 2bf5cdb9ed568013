//! One declaration, two renderings: a table of [`Signal`]s walked into a
//! [`Scrape`] prints as the `/stats` tree and as the `/metrics` exposition.

use strudel_obs::{json, Histogram, HistogramSnapshot, Reading, Scrape, Signal};

strudel_obs::signals! {
    /// Cells of the test owner.
    struct Cells;
    /// Snapshot of the test owner.
    struct Stats {
        on: Flag, "cache.on", "demo_cache_on", "Whether on.";
    }
    hits: Counter, "cache.hits", "demo_cache_hits_total", "Cache hits.";
    total: Counter, "total", "demo_total", "Everything.";
    size: Gauge, "cache.size", "demo_cache_size", "Cache size.";
}

/// What the macro has no row for: the forms only one endpoint has.
const NATIVE: &[Signal<HistogramSnapshot>] = &[
    Signal {
        key: "",
        family: "demo_seconds",
        help: "Latency.",
        read: |latency| Reading::Histogram(*latency),
    },
    Signal {
        key: "",
        family: "demo_info",
        help: "Build.",
        read: |_| Reading::Info(&[("version", "1")]),
    },
    Signal {
        key: "latency_us.p50",
        family: "",
        help: "Median.",
        read: |latency| Reading::Gauge(latency.quantile(0.5)),
    },
    Signal {
        key: "cache.worst",
        family: "",
        help: "Worst.",
        read: |_| Reading::Json("[1,2]".into()),
    },
];

fn scrape() -> Scrape {
    let cells = Cells::new();
    cells.hits.add(3);
    cells.total.inc();
    cells.size.set(9);
    let stats = cells.snapshot();
    assert_eq!(
        (stats.hits, stats.total, stats.size, stats.on),
        (3, 1, 9, false)
    );
    let latency = Histogram::new();
    latency.record(80);
    let mut scrape = Scrape::default();
    scrape.walk(Stats::SIGNALS, &Stats { on: true, ..stats });
    scrape.walk(NATIVE, &latency.snapshot());
    scrape
}

#[test]
fn one_walk_renders_the_json_tree() {
    // Keys nest where their prefix first appears, whichever table they came
    // from; one-sided rows show on their side only.
    let text = scrape().to_json();
    assert_eq!(
        text,
        r#"{"cache":{"hits":3,"size":9,"on":true,"worst":[1,2]},"total":1,"latency_us":{"p50":80}}"#
    );
    json::parse(&text).expect("valid JSON");
}

#[test]
fn the_same_walk_renders_the_exposition() {
    let text = scrape().to_prometheus();
    for lines in [
        "# HELP demo_cache_hits_total Cache hits.\n# TYPE demo_cache_hits_total counter\ndemo_cache_hits_total 3\n",
        "# TYPE demo_cache_size gauge\ndemo_cache_size 9\n",
        "# TYPE demo_cache_on gauge\ndemo_cache_on 1\n",
        "# TYPE demo_seconds histogram\n",
        "demo_seconds_count 1\n",
        "# TYPE demo_info gauge\ndemo_info{version=\"1\"} 1\n",
    ] {
        assert!(text.contains(lines), "{lines} in {text}");
    }
    assert!(!text.contains("p50") && !text.contains("worst"), "{text}");
}

#[test]
fn samples_carry_the_declaration() {
    let scrape = scrape();
    let hits = &scrape.samples()[0];
    assert_eq!(
        (hits.key, hits.family, hits.help, hits.reading.prom_type()),
        (
            "cache.hits",
            "demo_cache_hits_total",
            "Cache hits.",
            Some("counter")
        )
    );
    assert_eq!(scrape.samples().len(), 8);
}
