//! **Figure 4** — visualization of mobility data sequences.
//!
//! Measures the Viewer pipeline at growing entry counts: abstraction of all
//! four data kinds into timeline entries, timeline construction, navigator
//! clicks, instant queries, SVG map rendering, and ASCII rendering.
//!
//! Run: `cargo run -p trips-bench --bin figure4 --release`

use trips_bench::{editor_from_truth, f1, make_dataset, time_ms, Table};
use trips_clean::Cleaner;
use trips_core::{Translator, TranslatorConfig};
use trips_data::{Duration, Timestamp};
use trips_sim::ErrorModel;
use trips_viewer::{ascii, Entry, MapView, SourceKind, SvgRenderer, Timeline, VisibilityControl};

fn main() {
    println!("== Figure 4: Viewer performance ==\n");

    let mut t = Table::new(&[
        "devices",
        "entries",
        "abstract ms",
        "timeline ms",
        "click µs",
        "at() µs",
        "svg ms",
        "svg KiB",
        "ascii ms",
    ]);

    for devices in [5usize, 20, 60] {
        let ds = make_dataset(2, 4, devices, 1, 0xF16004, ErrorModel::default());
        let editor = editor_from_truth(&ds, devices.min(20));
        let translator = Translator::from_editor(&ds.dsm, &editor, TranslatorConfig::standard())
            .expect("translator");
        let result = translator.translate(&ds.sequences());
        // The result keeps no cleaned records: the same deterministic
        // Cleaner re-derives them, outside the timed abstraction.
        let cleaner = Cleaner::new(&ds.dsm, TranslatorConfig::standard().cleaner).expect("cleaner");
        let cleaned: Vec<_> = result
            .devices
            .iter()
            .map(|d| cleaner.clean(&d.raw))
            .collect();

        // Abstraction: all four sources into entries.
        let (entries, abstract_ms) = time_ms(|| {
            let mut entries: Vec<Entry> = Vec::new();
            for ((d, c), trace) in result.devices.iter().zip(&cleaned).zip(&ds.traces) {
                for r in d.raw.records() {
                    entries.push(Entry::from_record(r, SourceKind::Raw));
                }
                for r in c.sequence.records() {
                    entries.push(Entry::from_record(r, SourceKind::Cleaned));
                }
                for (ts, p) in trace.truth_samples.iter().step_by(5) {
                    entries.push(Entry::from_truth(*ts, *p));
                }
                for s in &d.semantics {
                    entries.push(Entry::from_semantics(s, &ds.dsm));
                }
            }
            entries
        });

        let (timeline, timeline_ms) = time_ms(|| Timeline::new(entries.clone()));

        // Navigator clicks (average over all navigators).
        let clicks = timeline.navigator_len().max(1);
        let (_, click_total_ms) = time_ms(|| {
            let mut total = 0usize;
            for i in 0..timeline.navigator_len() {
                total += timeline.click_navigator(i).map_or(0, |v| v.len());
            }
            total
        });

        // Instant queries across the span.
        let span = timeline.span().unwrap_or((Timestamp(0), Timestamp(0)));
        let probes: Vec<Timestamp> = (0..200)
            .map(|i| span.0 + Duration((span.1 - span.0).as_millis() * i / 200))
            .collect();
        let (_, at_total_ms) =
            time_ms(|| probes.iter().map(|t| timeline.at(*t).len()).sum::<usize>());

        // SVG render of floor 0.
        let view = MapView::fit_to_floor(&ds.dsm, 0, 1000.0, 700.0);
        let renderer = SvgRenderer::new(view);
        let (svg, svg_ms) = time_ms(|| {
            renderer.render(
                &ds.dsm,
                timeline.entries(),
                &VisibilityControl::all_visible(),
            )
        });

        // ASCII render.
        let (_, ascii_ms) = time_ms(|| {
            ascii::render(
                &ds.dsm,
                0,
                timeline.entries(),
                &VisibilityControl::all_visible(),
                80,
                24,
            )
        });

        t.row(&[
            devices.to_string(),
            timeline.len().to_string(),
            f1(abstract_ms),
            f1(timeline_ms),
            f1(click_total_ms * 1000.0 / clicks as f64),
            f1(at_total_ms * 1000.0 / probes.len() as f64),
            f1(svg_ms),
            (svg.len() / 1024).to_string(),
            f1(ascii_ms),
        ]);
    }
    t.print();
    println!("\n(abstraction is linear in entries; click/at() linear in timeline; svg linear in visible entries)");
}
