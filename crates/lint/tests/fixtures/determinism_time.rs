// Fixture: determinism-time. Lines tagged `//~ determinism-time` must
// be flagged at exactly that line; everything else must stay clean.
// This file is lexed by the self-test, never compiled.
use std::time::Instant;

fn stamp() -> Instant {
    Instant::now() //~ determinism-time
}

fn epoch_secs() -> u64 {
    let _t = std::time::SystemTime::now(); //~ determinism-time
    0
}

fn fan_out() {
    std::thread::spawn(|| {}); //~ determinism-time
}

fn named_worker() {
    let _ = std::thread::Builder::new(); //~ determinism-time
}

fn scoped_workers() {
    std::thread::scope(|_| {}); //~ determinism-time
}

fn prose_is_fine() {
    // Instant::now inside a comment is prose, not a wall-clock read.
    let _ = "Instant::now in a string literal is data, not code";
}
