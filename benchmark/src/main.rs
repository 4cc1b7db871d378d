//! `urlid-benchmark`: see the library's `bench` module for usage.

use urlid_benchmark::alloc::CountingAlloc;

/// Every allocation of the process is counted, so the in-process layer
/// figures can report allocations per call.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(urlid_benchmark::bench::main(&argv));
}
