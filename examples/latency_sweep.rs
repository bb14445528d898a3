//! Latency anatomy of one atomic remote object read, across object sizes
//! and mechanisms — a miniature of the paper's Figs. 7a/9a for interactive
//! exploration. The sweep points are independent scenarios, so they run in
//! parallel across OS threads (cap with `SABRES_THREADS`).
//!
//! ```text
//! cargo run --release --example latency_sweep
//! ```

use sabres::prelude::*;

fn one_reader(size: u32, mech: ReadMechanism, mode: SpecMode) -> f64 {
    // Memory-resident targets: enough objects that LLC misses dominate
    // (this example has always capped the count at 8192, below
    // `raw_region`'s default clamp, so its printed numbers stay stable
    // across the Scenario-API migration).
    let slot = (size as u64).div_ceil(64) * 64;
    let count = (16 * 1024 * 1024 / slot).min(8192);
    ScenarioBuilder::new()
        .configure(|cfg| cfg.lightsabres.spec_mode = mode)
        .raw_region_sized(1, size, count)
        .reader_spec(0, 0, spec().store(1).payload(size).mechanism(mech))
        .run_for(Time::from_us(400))
        .core(0, 0)
        .latency
        .mean()
        .expect("ops completed")
}

fn main() {
    println!("mean end-to-end latency of one synchronous remote operation (ns)\n");
    println!(
        "{:>8}  {:>12} {:>12} {:>12} {:>14}",
        "size(B)", "remote read", "SABRe", "SABRe nospec", "perCL(sw OCC)"
    );
    let rows = Sweep::over([64u32, 256, 1024, 4096, 8192]).map(|&size| {
        let read = one_reader(size, ReadMechanism::Raw, SpecMode::Speculative);
        let sabre = one_reader(size, ReadMechanism::Sabre, SpecMode::Speculative);
        let nospec = one_reader(size, ReadMechanism::Sabre, SpecMode::ReadVersionFirst);
        let percl = one_reader(
            size,
            ReadMechanism::PerClValidate { payload: size },
            SpecMode::Speculative,
        );
        (size, read, sabre, nospec, percl)
    });
    for (size, read, sabre, nospec, percl) in rows {
        println!("{size:>8}  {read:>12.0} {sabre:>12.0} {nospec:>12.0} {percl:>14.0}");
    }
    println!(
        "\nSABRes track plain reads; the no-speculation strawman pays the\n\
         serialized version read; software OCC pays the CPU check, growing\n\
         linearly with size."
    );
}
