//! Generates compiled recursive-descent parsers (via `ipg-core::codegen`)
//! for the codegen-compatible format grammars, so the Fig. 13 benches can
//! compare *compiled* IPG parsers against the baselines — matching the
//! paper's setting, where the OCaml generator emits C++ that is compiled
//! before measurement.
//!
//! ELF and DNS use parent-referencing local rules (supported by the
//! interpreter only), so no compiled parser is generated for them and
//! their Fig. 13 benches measure the VM alone against the baselines. Those
//! two rows therefore understate what a compiled IPG parser would reach,
//! unlike the paper, whose generator compiles every format.

use std::path::Path;

fn main() {
    println!("cargo::rerun-if-changed=../ipg-formats/specs");
    let out_dir = std::env::var("OUT_DIR").expect("OUT_DIR set by cargo");
    let targets: &[(&str, &str)] = &[
        ("gen_zip", ipg_formats::zip::SPEC),
        ("gen_gif", ipg_formats::gif::SPEC),
        ("gen_pe", ipg_formats::pe::SPEC),
        ("gen_ipv4udp", ipg_formats::ipv4udp::SPEC),
        ("gen_png", ipg_formats::png::SPEC),
    ];
    for (name, spec) in targets {
        let grammar = ipg_core::frontend::parse_grammar(spec).expect("embedded specs are valid");
        let code = ipg_core::codegen::generate_rust(&grammar).expect("spec is codegen-compatible");
        std::fs::write(Path::new(&out_dir).join(format!("{name}.rs")), code)
            .expect("write generated parser");
    }
}
