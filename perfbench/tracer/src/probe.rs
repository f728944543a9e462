//! `distill-probe` — the benchmark's machine-speed probe.
//!
//! A fixed kernel of integer arithmetic and random reads and writes over a
//! 2 MiB buffer per thread, on two threads (the benchmark's thread count).
//! It uses nothing from the repository's crates, so its time moves only
//! with the speed the machine gives the benchmark at that moment, never
//! with a change to the program. Prints the kernel's wall time in seconds.

use std::time::Instant;

const THREADS: u64 = 2;
const WORDS: usize = 1 << 18;
const STEPS: u64 = 7_000_000;

fn kernel(seed: u64) -> u64 {
    let mut buf: Vec<u64> = (0..WORDS as u64).collect();
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut buf[(x as usize) & (WORDS - 1)];
        *slot = slot.wrapping_add(acc ^ x);
        acc = acc.wrapping_add(*slot).rotate_left(5);
    }
    acc
}

fn main() {
    let start = Instant::now();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| std::thread::spawn(move || kernel(t + 7)))
        .collect();
    let acc = workers
        .into_iter()
        .map(|w| w.join().expect("probe thread"))
        .fold(0, |a, b| a ^ b);
    let elapsed = start.elapsed().as_secs_f64();
    // The checksum keeps the kernel from being optimised away.
    println!("{elapsed:.9} {}", acc & 0xff);
}
