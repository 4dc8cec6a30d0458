//! GIF: grammar access and typed extraction (§4.2 case study).

use crate::{field_table, flatten_chain, need, Chain, Child, Names};
use ipg_core::arena::{AttrSlot, NodeRef};
use ipg_core::check::Grammar;
use ipg_core::error::{Error, Result};
use ipg_core::interp::vm::VmParser;
use std::sync::OnceLock;

/// The embedded `.ipg` specification.
pub const SPEC: &str = include_str!("../specs/gif.ipg");

/// The checked GIF grammar.
pub fn grammar() -> &'static Grammar {
    crate::registry::corpus_entry("gif").grammar()
}

/// The compiled bytecode parser.
pub fn vm() -> &'static VmParser {
    crate::registry::corpus_entry("gif").vm()
}

/// A parsed image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GifImage {
    /// Logical screen width.
    pub width: u16,
    /// Logical screen height.
    pub height: u16,
    /// Whether a global color table is present.
    pub has_gct: bool,
    /// Global color table length in bytes (0 when absent).
    pub gct_len: usize,
    /// Top-level blocks, in order.
    pub blocks: Vec<GifBlock>,
}

impl GifImage {
    /// Number of image frames.
    pub fn n_frames(&self) -> usize {
        self.blocks.iter().filter(|b| matches!(b, GifBlock::Image { .. })).count()
    }
}

/// One top-level block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GifBlock {
    /// An extension block with its label and total data length.
    Extension {
        /// The extension label (0xf9 graphic control, 0xfe comment, …).
        label: u8,
        /// Total bytes across its data sub-blocks.
        data_len: usize,
    },
    /// An image descriptor.
    Image {
        /// Frame width.
        width: u16,
        /// Frame height.
        height: u16,
        /// Total bytes of LZW-coded data across sub-blocks.
        data_len: usize,
    },
}

/// What the extractor reads of the grammar's trees.
struct Fields {
    lsd: Child,
    blocks: Child,
    chain: Chain,
    ext: Child,
    image: Child,
    ext_sub_blocks: Child,
    image_sub_blocks: Child,
    sub_blocks: Chain,
    w: AttrSlot,
    h: AttrSlot,
    gctflag: AttrSlot,
    gctsize: AttrSlot,
    label: AttrSlot,
    image_w: AttrSlot,
    image_h: AttrSlot,
    sb_len: AttrSlot,
}

impl Fields {
    fn get() -> Result<&'static Fields> {
        static TABLE: OnceLock<Result<Fields>> = OnceLock::new();
        field_table(&TABLE, "gif", |r: &Names<'_>| {
            Ok(Fields {
                lsd: r.child("GIF", "LSD")?,
                blocks: r.child("GIF", "Blocks")?,
                chain: r.chain("Blocks", "Block")?,
                ext: r.child("Block", "Ext")?,
                image: r.child("Block", "Image")?,
                ext_sub_blocks: r.child("Ext", "SubBlocks")?,
                image_sub_blocks: r.child("Image", "SubBlocks")?,
                sub_blocks: r.chain("SubBlocks", "SB")?,
                w: r.attr("LSD", "w")?,
                h: r.attr("LSD", "h")?,
                gctflag: r.attr("LSD", "gctflag")?,
                gctsize: r.attr("LSD", "gctsize")?,
                label: r.attr("Ext", "label")?,
                image_w: r.attr("Image", "w")?,
                image_h: r.attr("Image", "h")?,
                sb_len: r.attr("SB", "len")?,
            })
        })
    }
}

/// Parses a GIF with the IPG grammar and extracts a typed view.
///
/// # Errors
///
/// [`Error::Parse`] when the input is not valid GIF per the grammar.
pub fn parse(input: &[u8]) -> Result<GifImage> {
    let f = Fields::get()?;
    let tree = vm().parse(input)?;
    let root = tree.root().as_node().expect("root is a node");
    let lsd = f.lsd.node(root).ok_or_else(|| Error::Grammar("extractor: missing LSD".into()))?;
    let width = need(lsd, f.w)? as u16;
    let height = need(lsd, f.h)? as u16;
    let has_gct = need(lsd, f.gctflag)? == 1;
    let gct_len = if has_gct { need(lsd, f.gctsize)? as usize } else { 0 };

    let mut blocks = Vec::new();
    if let Some(chain) = f.blocks.node(root) {
        for block in flatten_chain(chain, f.chain) {
            if let Some(ext) = f.ext.node(block) {
                blocks.push(GifBlock::Extension {
                    label: need(ext, f.label)? as u8,
                    data_len: sub_blocks_len(f, f.ext_sub_blocks.node(ext))?,
                });
            } else if let Some(img) = f.image.node(block) {
                blocks.push(GifBlock::Image {
                    width: need(img, f.image_w)? as u16,
                    height: need(img, f.image_h)? as u16,
                    data_len: sub_blocks_len(f, f.image_sub_blocks.node(img))?,
                });
            }
        }
    }
    Ok(GifImage { width, height, has_gct, gct_len, blocks })
}

/// Sums the data lengths over a `SubBlocks` chain; 0 without one.
fn sub_blocks_len(f: &Fields, sub_blocks: Option<NodeRef<'_>>) -> Result<usize> {
    let mut total = 0;
    if let Some(top) = sub_blocks {
        for sb in flatten_chain(top, f.sub_blocks) {
            total += need(sb, f.sb_len)? as usize;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_corpus::gif as gen;

    #[test]
    fn parses_default_corpus_image() {
        let img = gen::generate(&gen::Config::default());
        let parsed = parse(&img.bytes).unwrap();
        assert_eq!(parsed.width, img.summary.width);
        assert_eq!(parsed.height, img.summary.height);
        assert_eq!(parsed.has_gct, img.summary.has_gct);
        assert_eq!(parsed.gct_len, img.summary.gct_len);
        assert_eq!(parsed.blocks.len(), img.summary.n_blocks);
        assert_eq!(parsed.n_frames(), img.summary.n_frames);
    }

    #[test]
    fn no_gct_image_parses() {
        let img = gen::generate(&gen::Config { gct_bits: None, ..Default::default() });
        let parsed = parse(&img.bytes).unwrap();
        assert!(!parsed.has_gct);
        assert_eq!(parsed.gct_len, 0);
    }

    #[test]
    fn zero_frame_image_parses_via_second_alternative() {
        let img = gen::generate(&gen::Config { n_frames: 0, ..Default::default() });
        let parsed = parse(&img.bytes).unwrap();
        assert_eq!(parsed.blocks.len(), 0);
    }

    #[test]
    fn frame_data_lengths_are_summed() {
        let img =
            gen::generate(&gen::Config { n_frames: 1, data_per_frame: 600, ..Default::default() });
        let parsed = parse(&img.bytes).unwrap();
        let GifBlock::Image { data_len, .. } = parsed.blocks[1] else {
            panic!("expected image block after GCE");
        };
        assert_eq!(data_len, 600);
    }

    #[test]
    fn truncated_image_is_rejected() {
        let img = gen::generate(&gen::Config::default());
        assert!(parse(&img.bytes[..img.bytes.len() - 1]).is_err());
        assert!(parse(b"GIF89a").is_err());
    }

    #[test]
    fn wrong_signature_is_rejected() {
        let mut img = gen::generate(&gen::Config::default()).bytes;
        img[0] = b'J';
        assert!(parse(&img).is_err());
    }
}
