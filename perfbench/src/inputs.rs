//! Seeded inputs and their oracle references.
//!
//! Every expected result is computed here, at set-up, without the VM under
//! test: file extractions are checked against the corpus generators' ground
//! truth, and hostile mutants and wire packets against the frozen
//! tree-walking interpreter (`ipg_core::interp::Parser`).

use ipg_core::interp::Parser;
use ipg_core::ipgc::Fnv1a;
use ipg_core::Error;
use ipg_corpus as gen;
use ipg_formats::corpus_entry;

/// Step fuel for every one-shot parse: the serve tier's default, the
/// repository's standard bound for pathological loops.
pub const FUEL: u64 = 50_000_000;

/// The formats the workloads draw from, by corpus registry name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Format {
    ZipInflate,
    Zip,
    Elf,
    Gif,
    Pe,
    Pdf,
    Png,
    Dns,
    Ipv4Udp,
}

impl Format {
    /// The whole-file formats of the `files` workload.
    pub const FILES: [Format; 7] = [
        Format::ZipInflate,
        Format::Zip,
        Format::Elf,
        Format::Gif,
        Format::Pe,
        Format::Pdf,
        Format::Png,
    ];

    /// The small packet formats of the `wire` workload.
    pub const PACKETS: [Format; 2] = [Format::Dns, Format::Ipv4Udp];

    /// The corpus registry name.
    pub fn name(self) -> &'static str {
        match self {
            Format::ZipInflate => "zip_inflate",
            Format::Zip => "zip",
            Format::Elf => "elf",
            Format::Gif => "gif",
            Format::Pe => "pe",
            Format::Pdf => "pdf",
            Format::Png => "png",
            Format::Dns => "dns",
            Format::Ipv4Udp => "ipv4udp",
        }
    }
}

/// SplitMix64: derives independent generator seeds from the run seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.rotate_left(32);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic Fisher–Yates shuffle driven by [`mix`].
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, 0x5348, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// One generated input with the facts the oracle checks.
pub struct Generated {
    pub bytes: Vec<u8>,
    /// Digest of the ground-truth facts, comparable with [`digest_output`].
    pub digest: u64,
    /// The uncompressed entry payload (zip_inflate only).
    pub payload: Vec<u8>,
}

/// Generates one whole file or packet of `format` at its fixed
/// configuration; `seed` varies only the contents.
pub fn generate(format: Format, seed: u64) -> Generated {
    let mut d = Fnv1a::new();
    let mut payload = Vec::new();
    let bytes = match format {
        Format::ZipInflate | Format::Zip => {
            let z = gen::zip::generate(&gen::zip::Config {
                n_entries: if format == Format::Zip { 16 } else { 32 },
                payload_len: 4096,
                method: gen::zip::Method::Deflate,
                seed,
            });
            if format == Format::Zip {
                put(&mut d, &[z.entries.len() as u64, u64::from(z.cd_offset)]);
                for e in &z.entries {
                    d.update(e.name.as_bytes());
                    put(
                        &mut d,
                        &[
                            8,
                            u64::from(e.crc32),
                            u64::from(e.compressed_size),
                            u64::from(e.uncompressed_size),
                        ],
                    );
                }
            } else {
                for e in &z.entries {
                    d.update(e.name.as_bytes());
                    put(&mut d, &[1]);
                }
                payload = z.payload;
            }
            z.bytes
        }
        Format::Elf => {
            let f = gen::elf::generate(&gen::elf::Config {
                n_sections: 4,
                section_size: 256,
                n_symbols: 16,
                n_dyn: 8,
                seed,
            });
            let s = &f.summary;
            put(&mut d, &[s.shoff, u64::from(s.shnum), u64::from(s.shstrndx)]);
            put(&mut d, &[s.sections.len() as u64]);
            for &(ty, ofs, sz) in &s.sections {
                put(&mut d, &[u64::from(ty), ofs, sz]);
            }
            for name in s.section_names.iter().skip(1) {
                d.update(name.as_bytes());
            }
            f.bytes
        }
        Format::Gif => {
            let f = gen::gif::generate(&gen::gif::Config {
                n_frames: 8,
                data_per_frame: 2048,
                seed,
                ..Default::default()
            });
            let s = &f.summary;
            put(
                &mut d,
                &[
                    u64::from(s.width),
                    u64::from(s.height),
                    u64::from(s.has_gct),
                    s.gct_len as u64,
                    s.n_blocks as u64,
                    s.n_frames as u64,
                ],
            );
            f.bytes
        }
        Format::Pe => {
            let f = gen::pe::generate(&gen::pe::Config { n_sections: 8, section_size: 2048, seed });
            let s = &f.summary;
            put(&mut d, &[u64::from(s.pe_offset), u64::from(s.n_sections)]);
            for (_, ptr, size) in &s.sections {
                put(&mut d, &[u64::from(*ptr), u64::from(*size)]);
            }
            f.bytes
        }
        Format::Pdf => {
            let f = gen::pdf::generate(&gen::pdf::Config { n_objects: 8, stream_len: 1024, seed });
            let s = &f.summary;
            put(&mut d, &[s.xref_offset as u64, s.objects.len() as u64 + 1]);
            for &(id, offset, len) in &s.objects {
                put(&mut d, &[id as u64, offset as u64, len as u64]);
            }
            f.bytes
        }
        Format::Png => {
            let f = gen::png::generate(&gen::png::Config {
                n_idat: 16,
                idat_len: 2048,
                width: 640,
                height: 480,
                with_text: true,
                seed,
            });
            let s = &f.summary;
            put(&mut d, &[u64::from(s.width), u64::from(s.height)]);
            for (ty, &len) in s.chunk_types.iter().zip(&s.chunk_lens) {
                if ty != "IHDR" && ty != "IEND" {
                    d.update(ty.as_bytes());
                    put(&mut d, &[u64::from(len)]);
                }
            }
            f.bytes
        }
        Format::Dns => {
            gen::dns::generate(&gen::dns::Config {
                n_questions: 1,
                n_answers: 4,
                compress: true,
                seed,
            })
            .bytes
        }
        Format::Ipv4Udp => {
            gen::ipv4udp::generate(&gen::ipv4udp::Config {
                payload_len: 128,
                options_words: 0,
                seed,
            })
            .bytes
        }
    };
    Generated { bytes, digest: d.finish(), payload }
}

fn put(d: &mut Fnv1a, words: &[u64]) {
    for w in words {
        d.update(&w.to_le_bytes());
    }
}

/// What a `files` op returns: the typed extraction of one file.
pub enum Output {
    Zip(ipg_formats::zip::ZipArchive),
    Extract(Vec<(String, Vec<u8>)>),
    Elf(ipg_formats::elf::ElfFile),
    Gif(ipg_formats::gif::GifImage),
    Pe(ipg_formats::pe::PeFile),
    Pdf(ipg_formats::pdf::PdfDocument),
    Png(ipg_formats::png::PngImage),
}

/// The `files` op: typed extraction through `ipg-formats`.
pub fn extract(format: Format, input: &[u8]) -> ipg_core::Result<Output> {
    use ipg_formats as f;
    Ok(match format {
        Format::ZipInflate => Output::Extract(f::zip::extract(input)?),
        Format::Zip => Output::Zip(f::zip::parse(input)?),
        Format::Elf => Output::Elf(f::elf::parse(input)?),
        Format::Gif => Output::Gif(f::gif::parse(input)?),
        Format::Pe => Output::Pe(f::pe::parse(input)?),
        Format::Pdf => Output::Pdf(f::pdf::parse(input)?),
        Format::Png => Output::Png(f::png::parse(input)?),
        Format::Dns | Format::Ipv4Udp => unreachable!("packets are not a files format"),
    })
}

/// Digests an extraction over the same facts [`generate`] digests from
/// the ground truth; `payload` is the expected zip_inflate entry content.
pub fn digest_output(out: &Output, payload: &[u8]) -> u64 {
    let mut d = Fnv1a::new();
    match out {
        Output::Zip(z) => {
            put(&mut d, &[u64::from(z.entry_count), u64::from(z.cd_offset)]);
            for e in &z.entries {
                d.update(e.name.as_bytes());
                put(
                    &mut d,
                    &[
                        u64::from(e.method),
                        u64::from(e.crc32),
                        u64::from(e.compressed_size),
                        u64::from(e.uncompressed_size),
                    ],
                );
            }
        }
        Output::Extract(files) => {
            for (name, data) in files {
                d.update(name.as_bytes());
                put(&mut d, &[u64::from(data.as_slice() == payload)]);
            }
        }
        Output::Elf(e) => {
            put(&mut d, &[e.shoff, e.shnum, e.shstrndx, e.sections.len() as u64]);
            for s in &e.sections {
                put(&mut d, &[u64::from(s.sh_type), s.offset, s.size]);
            }
            for s in e.sections.iter().skip(1) {
                d.update(s.name.as_deref().unwrap_or("\u{0}missing").as_bytes());
            }
        }
        Output::Gif(g) => put(
            &mut d,
            &[
                u64::from(g.width),
                u64::from(g.height),
                u64::from(g.has_gct),
                g.gct_len as u64,
                g.blocks.len() as u64,
                g.n_frames() as u64,
            ],
        ),
        Output::Pe(p) => {
            put(&mut d, &[u64::from(p.pe_offset), p.sections.len() as u64]);
            for &(_, ptr, size) in &p.sections {
                put(&mut d, &[u64::from(ptr), u64::from(size)]);
            }
        }
        Output::Pdf(p) => {
            put(&mut d, &[p.xref_offset as u64, p.xref_count as u64]);
            for o in &p.objects {
                put(&mut d, &[o.id as u64, o.offset as u64, o.stream_len as u64]);
            }
        }
        Output::Png(p) => {
            put(&mut d, &[u64::from(p.width), u64::from(p.height)]);
            for (ty, (lo, hi)) in &p.chunks {
                d.update(ty.as_bytes());
                put(&mut d, &[(hi - lo) as u64]);
            }
        }
    }
    d.finish()
}

/// The frozen interpreter's verdict on `input`: `Ok(consumed bytes)` —
/// a one-shot parse consumes its whole input — or the exact deepest
/// error. `None` when the interpreter ran out of fuel (such inputs are
/// not used).
pub fn interpreter_verdict(format: Format, input: &[u8]) -> Option<Result<usize, Error>> {
    interpreter_run(format, input).map(|(verdict, _)| verdict)
}

/// [`interpreter_verdict`] together with the interpreter's step count.
pub fn interpreter_run(format: Format, input: &[u8]) -> Option<(Result<usize, Error>, u64)> {
    let parser = Parser::new(corpus_entry(format.name()).grammar()).max_steps(FUEL);
    let (result, stats) = parser.parse_with_stats(input);
    let verdict = match result {
        Ok(_) => Ok(input.len()),
        Err(Error::Parse(p)) if p.msg.starts_with("step limit") => return None,
        Err(e) => Err(e),
    };
    Some((verdict, stats.steps))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_files_format_extracts_to_its_ground_truth() {
        crate::init_test_cache();
        for format in Format::FILES {
            let g = generate(format, 7);
            let out = extract(format, &g.bytes).expect("generated files are valid");
            assert_eq!(digest_output(&out, &g.payload), g.digest, "{}", format.name());
        }
    }

    #[test]
    fn packets_are_accepted_by_the_interpreter() {
        crate::init_test_cache();
        for format in Format::PACKETS {
            let g = generate(format, 3);
            assert_eq!(interpreter_verdict(format, &g.bytes), Some(Ok(g.bytes.len())));
        }
    }
}
