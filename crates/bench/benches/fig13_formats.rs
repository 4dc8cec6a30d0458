//! Fig. 13 — parsing time across formats and input sizes.
//!
//! * 13a ZIP, 13b GIF, 13c PE, 13d ELF: IPG vs the Kaitai-style baseline.
//! * 13e DNS, 13f IPv4+UDP: IPG vs the Nail-style baseline.
//!
//! The `ipg` series is the bytecode VM behind `ipg_formats` (parse plus
//! typed extraction). The paper benchmarks generated C++ instead; this
//! repository measures a VM, not generated code.
//!
//! Expected shapes (paper): Kaitai far slower on ZIP (it copies archived
//! bodies; the IPG parser skips them zero-copy — see the
//! `fig13a_zip_large_stored` group where the effect dominates); rough
//! parity on GIF and PE; parity on ELF until string tables grow large
//! (deep recursion in the IPG grammar); IPG competitive on the packet
//! formats.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn zip(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13a_zip");
    for n in bench::ZIP_SIZES {
        let data = bench::zip_with_entries(n);
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.bench_with_input(BenchmarkId::new("ipg", n), &data, |b, d| {
            b.iter(|| ipg_formats::zip::parse(black_box(d)).expect("valid"));
        });
        group.bench_with_input(BenchmarkId::new("kaitai", n), &data, |b, d| {
            b.iter(|| ipg_baselines::kaitai_style::parse_zip(black_box(d)).expect("valid"));
        });
    }
    group.finish();

    // The workload where zero-copy matters: large stored entries. The IPG
    // parser records body *spans*; the Kaitai-style parser copies every
    // body.
    let mut group = c.benchmark_group("fig13a_zip_large_stored");
    for n in [4usize, 16, 64] {
        let data = bench::zip_with_large_stored_entries(n);
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.bench_with_input(BenchmarkId::new("ipg", n), &data, |b, d| {
            b.iter(|| ipg_formats::zip::parse(black_box(d)).expect("valid"));
        });
        group.bench_with_input(BenchmarkId::new("kaitai", n), &data, |b, d| {
            b.iter(|| ipg_baselines::kaitai_style::parse_zip(black_box(d)).expect("valid"));
        });
    }
    group.finish();
}

fn gif(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13b_gif");
    for n in bench::GIF_FRAMES {
        let data = bench::gif_with_frames(n);
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.bench_with_input(BenchmarkId::new("ipg", n), &data, |b, d| {
            b.iter(|| ipg_formats::gif::parse(black_box(d)).expect("valid"));
        });
        group.bench_with_input(BenchmarkId::new("kaitai", n), &data, |b, d| {
            b.iter(|| ipg_baselines::kaitai_style::parse_gif(black_box(d)).expect("valid"));
        });
    }
    group.finish();
}

fn pe(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13c_pe");
    for n in bench::SECTION_SIZES {
        let data = bench::pe_with_sections(n);
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.bench_with_input(BenchmarkId::new("ipg", n), &data, |b, d| {
            b.iter(|| ipg_formats::pe::parse(black_box(d)).expect("valid"));
        });
        group.bench_with_input(BenchmarkId::new("kaitai", n), &data, |b, d| {
            b.iter(|| ipg_baselines::kaitai_style::parse_pe(black_box(d)).expect("valid"));
        });
    }
    group.finish();
}

fn elf(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13d_elf");
    for n in bench::SECTION_SIZES {
        let data = bench::elf_with_sections(n);
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.bench_with_input(BenchmarkId::new("ipg", n), &data, |b, d| {
            b.iter(|| ipg_formats::elf::parse(black_box(d)).expect("valid"));
        });
        group.bench_with_input(BenchmarkId::new("kaitai", n), &data, |b, d| {
            b.iter(|| ipg_baselines::kaitai_style::parse_elf(black_box(d)).expect("valid"));
        });
    }
    group.finish();
}

fn dns(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13e_dns");
    for n in bench::DNS_ANSWERS {
        let data = bench::dns_with_answers(n);
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.bench_with_input(BenchmarkId::new("ipg", n), &data, |b, d| {
            b.iter(|| ipg_formats::dns::parse(black_box(d)).expect("valid"));
        });
        group.bench_with_input(BenchmarkId::new("nail", n), &data, |b, d| {
            b.iter(|| ipg_baselines::nail_style::parse_dns(black_box(d)).expect("valid"));
        });
    }
    group.finish();
}

fn ipv4udp(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13f_ipv4udp");
    for n in bench::UDP_PAYLOADS {
        let data = bench::udp_with_payload(n);
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.bench_with_input(BenchmarkId::new("ipg", n), &data, |b, d| {
            b.iter(|| ipg_formats::ipv4udp::parse(black_box(d)).expect("valid"));
        });
        group.bench_with_input(BenchmarkId::new("nail", n), &data, |b, d| {
            b.iter(|| ipg_baselines::nail_style::parse_ipv4_udp(black_box(d)).expect("valid"));
        });
    }
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = configured();
    targets = zip, gif, pe, elf, dns, ipv4udp
}
criterion_main!(benches);
