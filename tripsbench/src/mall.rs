//! `mall-batch`: the paper's own use. An analyst batch-translates a 7-floor
//! mall's week of raw Wi-Fi fixes with `Translator::translate` on `nproc`
//! threads, over repeated passes of the same sequences. No wire, codec,
//! store, WAL or rules on this path.

use crate::common::{median, micros, nproc, percentile, rss_mb, Json, WorkDir};
use crate::inputs::{self, Venue};
use crate::{layers, Args, Outcome};
use std::time::{Duration, Instant};
use trips_core::translator::TranslationResult;
use trips_core::{Translator, TranslatorConfig};
use trips_dsm::DigitalSpaceModel;

/// Shoppers in the simulated mall (each over 7 days).
const DEVICES: usize = 100;
/// Set-ups timed after each pass; `setup_s` is the median of all of them,
/// so it samples the host over the whole run, as the passes do.
const SETUPS_PER_PASS: usize = 2;
/// Untimed passes before the clock starts.
const WARMUP_PASSES: usize = 2;

fn load(venue: &Venue) -> DigitalSpaceModel {
    trips_dsm::json::from_json(&venue.dsm_json).expect("DSM loads")
}

/// Times one set-up: load the DSM (parse + freeze), train the Event
/// Editor's model, build the translator.
fn time_setup(venue: &Venue, threads: usize) -> f64 {
    let start = Instant::now();
    let dsm = load(venue);
    let t = Translator::from_editor(&dsm, &venue.editor, TranslatorConfig::parallel(threads));
    let took = start.elapsed().as_secs_f64();
    drop(t.expect("translator builds"));
    took
}

/// Parallel output must equal serial output bit for bit.
fn same(a: &TranslationResult, b: &TranslationResult) -> bool {
    a.devices.len() == b.devices.len()
        && a.devices.iter().zip(&b.devices).all(|(x, y)| {
            x.raw.device() == y.raw.device()
                && x.semantics == y.semantics
                && x.original_semantics == y.original_semantics
                && x.cleaned.report == y.cleaned.report
        })
}

/// Region-time accuracy of `result` against the venue's ground truth.
pub fn accuracy(venue: &Venue, result: &TranslationResult) -> f64 {
    let reports: Vec<_> = venue
        .truth
        .iter()
        .filter_map(|(device, visits)| {
            result
                .device(device)
                .map(|d| trips_core::assess::assess(&d.semantics, visits))
        })
        .collect();
    trips_core::assess::aggregate(&reports).region_time_accuracy
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let generated = Instant::now();
    let venue = inputs::mall(args.seed, DEVICES);
    let generate_s = generated.elapsed().as_secs_f64();
    let records = venue.record_count();
    let threads = nproc();
    out.note(
        "inputs",
        Json::obj([
            ("devices", Json::Num(venue.sequences.len() as f64)),
            ("days", Json::Num(7.0)),
            ("buildings", Json::Num(1.0)),
            ("floors", Json::Num(f64::from(inputs::FLOORS))),
            ("records", Json::Num(records as f64)),
            ("generate_s", Json::Num(generate_s)),
        ]),
    );
    out.note(
        "sizing",
        Json::obj([("translator_threads", Json::Num(threads as f64))]),
    );

    if args.trace {
        let dsm = load(&venue);
        let work = WorkDir::new("mall-batch").expect("scratch dir");
        let rules = inputs::rule_mix(&inputs::device_pattern(0, 0));
        let pattern = inputs::device_pattern(0, 1);
        let sweep = layers::sweep(&dsm, &venue.editor, &venue, &rules, &[], &pattern, &work);
        crate::finish_trace(args, &mut out, sweep);
        return out;
    }

    let mut setup_s = vec![time_setup(&venue, threads)];
    let dsm = load(&venue);
    let translator =
        Translator::from_editor(&dsm, &venue.editor, TranslatorConfig::parallel(threads))
            .expect("translator builds");

    // Serial reference, untimed.
    let serial = Translator::from_editor(&dsm, &venue.editor, TranslatorConfig::standard())
        .expect("translator builds")
        .translate(&venue.sequences);

    for _ in 0..WARMUP_PASSES {
        let r = translator.translate(&venue.sequences);
        out.check("warmup_parallel_equals_serial", same(&r, &serial));
    }
    let mut pass_us = Vec::new();
    let mut rates = Vec::new();
    let mut mismatches = 0;
    let mut rss = Vec::new();
    let phase = Instant::now();
    while phase.elapsed() < Duration::from_secs_f64(args.seconds) {
        let start = Instant::now();
        let result = translator.translate(&venue.sequences);
        let took = start.elapsed();
        pass_us.push(micros(took));
        rates.push(records as f64 / took.as_secs_f64());
        mismatches += u64::from(!same(&result, &serial));
        rss.push(rss_mb("VmRSS"));
        drop(result);
        setup_s.extend((0..SETUPS_PER_PASS).map(|_| time_setup(&venue, threads)));
    }
    out.ops("parallel_equals_serial", pass_us.len() as u64, mismatches);

    out.metric("setup_s", median(&setup_s), "s");
    out.metric("records_per_s", median(&rates), "1/s");
    out.metric("region_time_accuracy", accuracy(&venue, &serial), "share");
    out.metric("rss_mb", median(&rss), "MB");
    out.note(
        "samples",
        Json::obj([
            ("setups", Json::Num(setup_s.len() as f64)),
            ("passes", Json::Num(pass_us.len() as f64)),
            ("request_p50_us", Json::Num(percentile(&pass_us, 50.0))),
            ("request_p99_us", Json::Num(percentile(&pass_us, 99.0))),
        ]),
    );
    out
}
