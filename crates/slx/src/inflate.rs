//! Raw DEFLATE (RFC 1951): a from-scratch decompressor plus a simple
//! fixed-Huffman compressor.
//!
//! The decompressor supports all three block types — stored, fixed-Huffman,
//! and dynamic-Huffman — which covers every `.slx` ZIP entry a real tool
//! produces. It reads the stream through a 64-bit bit buffer and decodes
//! each Huffman code with one lookup in a [`LOOKUP_BITS`]-bit table; the
//! rare longer codes fall back to the canonical decoder. The compressor
//! emits literal-only fixed-Huffman blocks: always valid DEFLATE, adequate
//! for writing test archives, and an independent roundtrip oracle for the
//! decompressor.

use crate::FormatError;
use std::sync::OnceLock;

/// Width of the per-code lookup table: every fixed-Huffman code fits.
const LOOKUP_BITS: u32 = 9;
const LOOKUP_SIZE: usize = 1 << LOOKUP_BITS;

/// The largest expansion DEFLATE can encode: a 258-byte match costs at
/// least two bits.
const MAX_RATIO: usize = 1032;

fn truncated() -> FormatError {
    FormatError::Deflate("unexpected end of stream".into())
}

// ---------------------------------------------------------------------------
// bit I/O
// ---------------------------------------------------------------------------

struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte of `data` to load into `buf`.
    pos: usize,
    /// Pending stream bits, least significant first. Bits at and above
    /// `nbits` are zero or already hold the stream's next bits.
    buf: u64,
    /// Valid bits in `buf`.
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            buf: 0,
            nbits: 0,
        }
    }

    /// Tops `buf` up to at least 56 valid bits, or to the end of `data`.
    fn refill(&mut self) {
        if let Some(word) = self.data.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte slice"));
            self.buf |= word << self.nbits;
            self.pos += ((63 - self.nbits) / 8) as usize;
            self.nbits |= 56;
        } else {
            while self.nbits < 56 && self.pos < self.data.len() {
                self.buf |= u64::from(self.data[self.pos]) << self.nbits;
                self.pos += 1;
                self.nbits += 8;
            }
        }
    }

    fn consume(&mut self, n: u32) {
        self.buf >>= n;
        self.nbits -= n;
    }

    /// Reads `n <= 32` bits LSB-first (header fields, extra bits).
    fn read_bits(&mut self, n: u32) -> Result<u32, FormatError> {
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(truncated());
            }
        }
        let v = (self.buf & ((1u64 << n) - 1)) as u32;
        self.consume(n);
        Ok(v)
    }

    /// Skips to the next byte boundary and hands the buffered whole bytes
    /// back to `data`, so `pos` is the next unread byte.
    fn align_byte(&mut self) {
        self.consume(self.nbits % 8);
        self.pos -= (self.nbits / 8) as usize;
        self.buf = 0;
        self.nbits = 0;
    }

    /// The `len` bytes of a stored block, after its LEN/NLEN header.
    fn stored_block(&mut self) -> Result<&'a [u8], FormatError> {
        self.align_byte();
        let header = self
            .data
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| FormatError::Deflate("truncated stored header".into()))?;
        let len = u16::from_le_bytes([header[0], header[1]]);
        let nlen = u16::from_le_bytes([header[2], header[3]]);
        if len != !nlen {
            return Err(FormatError::Deflate("stored LEN/NLEN mismatch".into()));
        }
        let start = self.pos + 4;
        let block = self
            .data
            .get(start..start + len as usize)
            .ok_or_else(|| FormatError::Deflate("truncated stored block".into()))?;
        self.pos = start + len as usize;
        Ok(block)
    }
}

struct BitWriter {
    out: Vec<u8>,
    cur: u8,
    bit: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            cur: 0,
            bit: 0,
        }
    }

    fn write_bit(&mut self, v: u32) {
        if v != 0 {
            self.cur |= 1 << self.bit;
        }
        self.bit += 1;
        if self.bit == 8 {
            self.out.push(self.cur);
            self.cur = 0;
            self.bit = 0;
        }
    }

    /// Writes `n` bits LSB-first.
    fn write_bits(&mut self, v: u32, n: u32) {
        for i in 0..n {
            self.write_bit((v >> i) & 1);
        }
    }

    /// Writes a Huffman code (MSB of the code emitted first).
    fn write_code(&mut self, code: u32, len: u32) {
        for i in (0..len).rev() {
            self.write_bit((code >> i) & 1);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.bit > 0 {
            self.out.push(self.cur);
        }
        self.out
    }
}

// ---------------------------------------------------------------------------
// Huffman tables
// ---------------------------------------------------------------------------

/// Canonical Huffman decoder built from code lengths (RFC 1951 §3.2.2).
struct Huffman {
    /// `counts[len]` = number of codes of that length.
    counts: [u16; 16],
    /// Symbols sorted by (length, symbol order).
    symbols: Vec<u16>,
    /// Indexed by the next `LOOKUP_BITS` stream bits: `symbol << 4 | len`
    /// of the code they start with, or `0` when that code is longer than
    /// the table (or no code matches).
    fast: Box<[u16; LOOKUP_SIZE]>,
}

impl Huffman {
    fn from_lengths(lengths: &[u8]) -> Result<Self, FormatError> {
        let mut counts = [0u16; 16];
        for &l in lengths {
            if l > 15 {
                return Err(FormatError::Deflate("code length > 15".into()));
            }
            counts[l as usize] += 1;
        }
        counts[0] = 0;
        // over-subscription check
        let mut left = 1i32;
        for &count in counts.iter().skip(1) {
            left <<= 1;
            left -= count as i32;
            if left < 0 {
                return Err(FormatError::Deflate("over-subscribed huffman code".into()));
            }
        }
        let mut offsets = [0u16; 16];
        for len in 1..15 {
            offsets[len + 1] = offsets[len] + counts[len];
        }
        let mut symbols = vec![0u16; lengths.iter().filter(|&&l| l > 0).count()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l > 0 {
                symbols[offsets[l as usize] as usize] = sym as u16;
                offsets[l as usize] += 1;
            }
        }
        // canonical codes of the short lengths, bit-reversed because the
        // stream sends a code's most significant bit first
        let mut fast = Box::new([0u16; LOOKUP_SIZE]);
        let mut code = 0u32;
        let mut next = symbols.iter();
        for len in 1..=LOOKUP_BITS {
            for &sym in next.by_ref().take(counts[len as usize] as usize) {
                let entry = (sym << 4) | len as u16;
                let mut slot = (code.reverse_bits() >> (32 - len)) as usize;
                while slot < LOOKUP_SIZE {
                    fast[slot] = entry;
                    slot += 1 << len;
                }
                code += 1;
            }
            code <<= 1;
        }
        Ok(Huffman {
            counts,
            symbols,
            fast,
        })
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, FormatError> {
        if r.nbits < 15 {
            r.refill();
        }
        let entry = self.fast[r.buf as usize & (LOOKUP_SIZE - 1)];
        let len = u32::from(entry & 15);
        if len == 0 || len > r.nbits {
            return self.decode_slow(r);
        }
        r.consume(len);
        Ok(entry >> 4)
    }

    /// The canonical decoder, one code bit at a time out of the buffer:
    /// codes longer than the table, invalid codes, and codes cut off by
    /// the end of the stream.
    fn decode_slow(&self, r: &mut BitReader<'_>) -> Result<u16, FormatError> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..16 {
            if len > r.nbits {
                return Err(truncated());
            }
            code |= ((r.buf >> (len - 1)) & 1) as i32;
            let count = self.counts[len as usize] as i32;
            if code - first < count {
                r.consume(len);
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(FormatError::Deflate("invalid huffman code".into()))
    }
}

const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

fn fixed_literal_lengths() -> Vec<u8> {
    let mut l = vec![8u8; 288];
    for x in l.iter_mut().take(256).skip(144) {
        *x = 9;
    }
    for x in l.iter_mut().take(280).skip(256) {
        *x = 7;
    }
    l
}

/// The fixed literal/length and distance codes, built on first use.
fn fixed_tables() -> &'static (Huffman, Huffman) {
    static FIXED: OnceLock<(Huffman, Huffman)> = OnceLock::new();
    FIXED.get_or_init(|| {
        let lit = Huffman::from_lengths(&fixed_literal_lengths()).expect("fixed code is complete");
        let dist = Huffman::from_lengths(&[5u8; 30]).expect("fixed code is complete");
        (lit, dist)
    })
}

// ---------------------------------------------------------------------------
// inflate
// ---------------------------------------------------------------------------

/// Decompresses a raw DEFLATE stream whose output may not exceed
/// `max_len` bytes (a ZIP entry's declared size). At most
/// `max_len.min(1032 * data.len())` bytes are reserved up front, so a
/// forged `max_len` alone cannot force a large allocation.
///
/// # Errors
///
/// Returns [`FormatError::Deflate`] on any malformed input (truncation,
/// invalid codes, out-of-window distances) and as soon as the output
/// would grow past `max_len`.
pub fn inflate(data: &[u8], max_len: usize) -> Result<Vec<u8>, FormatError> {
    let mut r = BitReader::new(data);
    let mut out = Vec::with_capacity(max_len.min(data.len().saturating_mul(MAX_RATIO)));
    loop {
        let bfinal = r.read_bits(1)?;
        let btype = r.read_bits(2)?;
        match btype {
            0 => {
                let block = r.stored_block()?;
                if block.len() > max_len - out.len() {
                    return Err(oversize(max_len));
                }
                out.extend_from_slice(block);
            }
            1 => {
                let (lit, dist) = fixed_tables();
                inflate_block(&mut r, lit, dist, &mut out, max_len)?;
            }
            2 => {
                let (lit, dist) = read_dynamic_tables(&mut r)?;
                inflate_block(&mut r, &lit, &dist, &mut out, max_len)?;
            }
            _ => return Err(FormatError::Deflate("reserved block type".into())),
        }
        if bfinal == 1 {
            return Ok(out);
        }
    }
}

fn oversize(max_len: usize) -> FormatError {
    FormatError::Deflate(format!("output exceeds the declared {max_len} bytes"))
}

fn read_dynamic_tables(r: &mut BitReader<'_>) -> Result<(Huffman, Huffman), FormatError> {
    const ORDER: [usize; 19] = [
        16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
    ];
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    let mut cl_lengths = [0u8; 19];
    for &idx in ORDER.iter().take(hclen) {
        cl_lengths[idx] = r.read_bits(3)? as u8;
    }
    let cl = Huffman::from_lengths(&cl_lengths)?;
    let mut lengths = Vec::with_capacity(hlit + hdist);
    while lengths.len() < hlit + hdist {
        let sym = cl.decode(r)?;
        match sym {
            0..=15 => lengths.push(sym as u8),
            16 => {
                let prev = *lengths
                    .last()
                    .ok_or_else(|| FormatError::Deflate("repeat with no previous length".into()))?;
                let n = r.read_bits(2)? + 3;
                lengths.extend(std::iter::repeat_n(prev, n as usize));
            }
            17 => {
                let n = r.read_bits(3)? + 3;
                lengths.extend(std::iter::repeat_n(0, n as usize));
            }
            18 => {
                let n = r.read_bits(7)? + 11;
                lengths.extend(std::iter::repeat_n(0, n as usize));
            }
            _ => return Err(FormatError::Deflate("invalid code-length symbol".into())),
        }
    }
    if lengths.len() != hlit + hdist {
        return Err(FormatError::Deflate("code lengths overflow".into()));
    }
    let lit = Huffman::from_lengths(&lengths[..hlit])?;
    let dist = Huffman::from_lengths(&lengths[hlit..])?;
    Ok((lit, dist))
}

fn inflate_block(
    r: &mut BitReader<'_>,
    lit: &Huffman,
    dist: &Huffman,
    out: &mut Vec<u8>,
    max_len: usize,
) -> Result<(), FormatError> {
    loop {
        let sym = lit.decode(r)?;
        match sym {
            0..=255 => {
                if out.len() == max_len {
                    return Err(oversize(max_len));
                }
                out.push(sym as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let li = (sym - 257) as usize;
                let len = LENGTH_BASE[li] as usize + r.read_bits(LENGTH_EXTRA[li] as u32)? as usize;
                let dsym = dist.decode(r)? as usize;
                if dsym >= 30 {
                    return Err(FormatError::Deflate("invalid distance symbol".into()));
                }
                let d = DIST_BASE[dsym] as usize + r.read_bits(DIST_EXTRA[dsym] as u32)? as usize;
                if d > out.len() {
                    return Err(FormatError::Deflate("distance beyond window".into()));
                }
                if len > max_len - out.len() {
                    return Err(oversize(max_len));
                }
                let start = out.len() - d;
                if d >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // overlapping: each copied byte may be one just written
                    for i in start..start + len {
                        out.push(out[i]);
                    }
                }
            }
            _ => return Err(FormatError::Deflate("invalid literal/length symbol".into())),
        }
    }
}

// ---------------------------------------------------------------------------
// fixed-Huffman compressor (literal-only)
// ---------------------------------------------------------------------------

/// Compresses bytes as one fixed-Huffman DEFLATE block with literals only.
///
/// Never smaller than ~`8/8` of the input for random data (no LZ matching),
/// but always a valid stream; used by the ZIP writer and as the roundtrip
/// oracle for [`inflate`].
pub fn deflate_fixed(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bits(1, 1); // BFINAL
    w.write_bits(1, 2); // fixed Huffman
    for &b in data {
        let (code, len) = fixed_literal_code(b as u16);
        w.write_code(code, len);
    }
    let (code, len) = fixed_literal_code(256);
    w.write_code(code, len);
    w.finish()
}

fn fixed_literal_code(sym: u16) -> (u32, u32) {
    match sym {
        0..=143 => (0x30 + sym as u32, 8),
        144..=255 => (0x190 + (sym as u32 - 144), 9),
        256..=279 => (sym as u32 - 256, 7),
        _ => (0xC0 + (sym as u32 - 280), 8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unbounded(data: &[u8]) -> Result<Vec<u8>, FormatError> {
        inflate(data, usize::MAX)
    }

    #[test]
    fn stored_block_roundtrip() {
        // hand-built stored block: BFINAL=1, BTYPE=00
        let payload = b"hello stored";
        let mut raw = vec![0x01]; // bfinal=1, btype=00, then align
        raw.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        raw.extend_from_slice(&(!(payload.len() as u16)).to_le_bytes());
        raw.extend_from_slice(payload);
        assert_eq!(unbounded(&raw).unwrap(), payload);
    }

    #[test]
    fn fixed_huffman_roundtrip() {
        let data = b"the paper proposes FRODO, an efficient code generator";
        let compressed = deflate_fixed(data);
        assert_eq!(unbounded(&compressed).unwrap(), data);
    }

    #[test]
    fn fixed_huffman_all_byte_values() {
        let data: Vec<u8> = (0..=255u8).collect();
        assert_eq!(unbounded(&deflate_fixed(&data)).unwrap(), data);
    }

    #[test]
    fn empty_input_roundtrip() {
        assert_eq!(unbounded(&deflate_fixed(b"")).unwrap(), b"");
    }

    #[test]
    fn back_reference_copies_window() {
        // hand-assemble: fixed block with "ab" then a length-3 distance-2
        // match → "ababa"
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(1, 2);
        for &b in b"ab" {
            let (c, l) = fixed_literal_code(b as u16);
            w.write_code(c, l);
        }
        // length 3 = symbol 257, no extra; distance 2 = code 1, no extra
        let (c, l) = fixed_literal_code(257);
        w.write_code(c, l);
        w.write_code(1, 5);
        let (c, l) = fixed_literal_code(256);
        w.write_code(c, l);
        assert_eq!(unbounded(&w.finish()).unwrap(), b"ababa");
    }

    #[test]
    fn overlapping_back_reference() {
        // "a" then length-4 distance-1 → "aaaaa"
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(1, 2);
        let (c, l) = fixed_literal_code(b'a' as u16);
        w.write_code(c, l);
        let (c, l) = fixed_literal_code(258); // length 4
        w.write_code(c, l);
        w.write_code(0, 5); // distance 1
        let (c, l) = fixed_literal_code(256);
        w.write_code(c, l);
        assert_eq!(unbounded(&w.finish()).unwrap(), b"aaaaa");
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let compressed = deflate_fixed(b"some data");
        let truncated = &compressed[..compressed.len() - 2];
        assert!(unbounded(truncated).is_err());
    }

    #[test]
    fn reserved_block_type_is_rejected() {
        // bfinal=1, btype=11
        assert!(matches!(unbounded(&[0x07]), Err(FormatError::Deflate(_))));
    }

    #[test]
    fn stored_len_mismatch_is_rejected() {
        let raw = [0x01, 0x05, 0x00, 0x00, 0x00, b'x'];
        assert!(unbounded(&raw).is_err());
    }

    #[test]
    fn distance_beyond_window_is_rejected() {
        // immediate match with nothing in the window
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(1, 2);
        let (c, l) = fixed_literal_code(257);
        w.write_code(c, l);
        w.write_code(0, 5);
        let (c, l) = fixed_literal_code(256);
        w.write_code(c, l);
        assert!(unbounded(&w.finish()).is_err());
    }

    #[test]
    fn multi_block_streams_concatenate() {
        // two stored blocks
        let mut raw = vec![0x00]; // bfinal=0 stored
        raw.extend_from_slice(&2u16.to_le_bytes());
        raw.extend_from_slice(&(!2u16).to_le_bytes());
        raw.extend_from_slice(b"ab");
        raw.push(0x01); // bfinal=1 stored
        raw.extend_from_slice(&2u16.to_le_bytes());
        raw.extend_from_slice(&(!2u16).to_le_bytes());
        raw.extend_from_slice(b"cd");
        assert_eq!(unbounded(&raw).unwrap(), b"abcd");
    }

    #[test]
    fn dynamic_huffman_stream_decodes() {
        // A tiny dynamic-Huffman stream hand-assembled to encode "aab" with
        // a three-symbol literal alphabet: 'a' (len 1), 'b' (len 2), EOB
        // (len 2), plus one unused 1-bit distance code.
        const ORDER: [usize; 19] = [
            16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
        ];
        // code-length-code lengths: symbol 18 (zero run) -> 1 bit,
        // symbols 1 and 2 (literal lengths) -> 2 bits each
        let mut cl = [0u8; 19];
        cl[18] = 1;
        cl[1] = 2;
        cl[2] = 2;
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(2, 2); // dynamic
        w.write_bits(0, 5); // hlit = 257
        w.write_bits(0, 5); // hdist = 1
        w.write_bits(15, 4); // hclen = 19
        for &idx in &ORDER {
            w.write_bits(cl[idx] as u32, 3);
        }
        // canonical cl codes: 18 -> 0 (1 bit); 1 -> 10, 2 -> 11 (2 bits)
        let put18 = |w: &mut BitWriter, run: u32| {
            w.write_code(0, 1);
            w.write_bits(run - 11, 7);
        };
        let put1 = |w: &mut BitWriter| w.write_code(2, 2);
        let put2 = |w: &mut BitWriter| w.write_code(3, 2);
        put18(&mut w, 97); // symbols 0..97: zero
        put1(&mut w); // 'a' (97): len 1
        put2(&mut w); // 'b' (98): len 2
        put18(&mut w, 138); // symbols 99..237: zero
        put18(&mut w, 19); // symbols 237..256: zero
        put2(&mut w); // EOB (256): len 2
        put1(&mut w); // the single (unused) distance code: len 1
                      // canonical literal codes: 'a' -> 0; 'b' -> 10; EOB -> 11
        w.write_code(0, 1); // 'a'
        w.write_code(0, 1); // 'a'
        w.write_code(2, 2); // 'b'
        w.write_code(3, 2); // EOB
        assert_eq!(unbounded(&w.finish()).unwrap(), b"aab");
    }

    #[test]
    fn output_past_max_len_is_rejected() {
        let data = b"sixteen bytes!!!";
        let compressed = deflate_fixed(data);
        assert_eq!(inflate(&compressed, data.len()).unwrap(), data);
        let err = inflate(&compressed, data.len() - 1).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        // a match that would cross the bound fails before it is copied
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(1, 2);
        let (c, l) = fixed_literal_code(b'a' as u16);
        w.write_code(c, l);
        let (c, l) = fixed_literal_code(285); // length 258
        w.write_code(c, l);
        w.write_code(0, 5); // distance 1
        let (c, l) = fixed_literal_code(256);
        w.write_code(c, l);
        let stream = w.finish();
        assert_eq!(unbounded(&stream).unwrap().len(), 259);
        assert!(inflate(&stream, 258).is_err());
        // and so does a stored block
        let mut raw = vec![0x01];
        raw.extend_from_slice(&4u16.to_le_bytes());
        raw.extend_from_slice(&(!4u16).to_le_bytes());
        raw.extend_from_slice(b"abcd");
        assert!(inflate(&raw, 3).is_err());
    }

    /// One step of a hand-assembled stream.
    #[derive(Clone, Copy)]
    enum Op {
        Lit(u8),
        Match { len: usize, dist: usize },
    }

    /// What `ops` decode to, computed without any Huffman coding.
    fn expand(ops: &[Op]) -> Vec<u8> {
        let mut out = Vec::new();
        for &op in ops {
            match op {
                Op::Lit(b) => out.push(b),
                Op::Match { len, dist } => {
                    for _ in 0..len {
                        out.push(out[out.len() - dist]);
                    }
                }
            }
        }
        out
    }

    /// Canonical codes (RFC 1951 §3.2.2) for a list of code lengths.
    fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
        let mut count = [0u32; 16];
        for &l in lengths {
            count[l as usize] += 1;
        }
        count[0] = 0;
        let mut next = [0u32; 16];
        let mut code = 0;
        for len in 1..16 {
            code = (code + count[len - 1]) << 1;
            next[len] = code;
        }
        lengths
            .iter()
            .map(|&l| {
                let c = next[l as usize];
                next[l as usize] += (l > 0) as u32;
                c
            })
            .collect()
    }

    /// The symbol and extra bits encoding `value` in a base/extra table.
    fn base_symbol(bases: &[u16], extra: &[u8], value: usize) -> (usize, u32, u32) {
        let sym = bases.iter().rposition(|&b| b as usize <= value).unwrap();
        (sym, (value - bases[sym] as usize) as u32, extra[sym] as u32)
    }

    /// One final dynamic-Huffman block carrying `ops` under the given
    /// literal/length (286) and distance (30) code lengths. The code-length
    /// alphabet gives lengths 0..=15 a 4-bit code each, so every length is
    /// sent verbatim.
    fn dynamic_stream(lit_len: &[u8], dist_len: &[u8], ops: &[Op]) -> Vec<u8> {
        const ORDER: [usize; 19] = [
            16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
        ];
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(2, 2);
        w.write_bits(lit_len.len() as u32 - 257, 5);
        w.write_bits(dist_len.len() as u32 - 1, 5);
        w.write_bits(15, 4);
        for &idx in &ORDER {
            w.write_bits(if idx < 16 { 4 } else { 0 }, 3);
        }
        for &l in lit_len.iter().chain(dist_len) {
            w.write_code(l as u32, 4); // the canonical code of length l is l
        }
        let lit_code = canonical_codes(lit_len);
        let dist_code = canonical_codes(dist_len);
        let put = |w: &mut BitWriter, sym: usize| w.write_code(lit_code[sym], lit_len[sym] as u32);
        for &op in ops {
            match op {
                Op::Lit(b) => put(&mut w, b as usize),
                Op::Match { len, dist } => {
                    let (li, extra, n) = base_symbol(&LENGTH_BASE, &LENGTH_EXTRA, len);
                    put(&mut w, 257 + li);
                    w.write_bits(extra, n);
                    let (di, extra, n) = base_symbol(&DIST_BASE, &DIST_EXTRA, dist);
                    w.write_code(dist_code[di], dist_len[di] as u32);
                    w.write_bits(extra, n);
                }
            }
        }
        put(&mut w, 256);
        w.finish()
    }

    /// A complete literal/length and distance code with lengths 1..=15,
    /// so codes from 10 to 15 bits take the long-code path, plus the ops
    /// to send through it: long-code literals, overlapping and distant
    /// back-references.
    fn long_code_fixture() -> (Vec<u8>, Vec<Op>) {
        let mut lit_len = vec![0u8; 286];
        let chain: [usize; 14] = [
            b'a' as usize,
            b'b' as usize,
            b'c' as usize,
            256,
            257,
            258,
            b'd' as usize,
            b'e' as usize,
            b'f' as usize,
            b'g' as usize,
            b'h' as usize,
            259,
            b'i' as usize,
            270,
        ];
        for (k, &sym) in chain.iter().enumerate() {
            lit_len[sym] = k as u8 + 1;
        }
        lit_len[b'j' as usize] = 15;
        lit_len[285] = 15;
        let mut dist_len = vec![0u8; 30];
        for (k, l) in dist_len.iter_mut().take(14).enumerate() {
            *l = k as u8 + 1;
        }
        dist_len[14] = 15;
        dist_len[15] = 15;
        let mut ops: Vec<Op> = b"abc".iter().map(|&b| Op::Lit(b)).collect();
        ops.push(Op::Match { len: 3, dist: 3 });
        ops.extend(b"defghij".iter().map(|&b| Op::Lit(b)));
        ops.push(Op::Match { len: 258, dist: 1 }); // overlapping run of 'j'
        ops.push(Op::Match { len: 4, dist: 2 }); // overlapping pair
        ops.push(Op::Match { len: 25, dist: 6 }); // 14-bit length code
        ops.push(Op::Match { len: 5, dist: 30 }); // 10-bit distance code
        ops.push(Op::Match { len: 5, dist: 136 }); // 15-bit distance code
                                                   // 15-bit length and distance codes
        ops.push(Op::Match {
            len: 258,
            dist: 200,
        });
        ops.extend(b"ihgfedcba".iter().map(|&b| Op::Lit(b)));
        let stream = dynamic_stream(&lit_len, &dist_len, &ops);
        (stream, ops)
    }

    #[test]
    fn long_codes_match_the_bitwise_oracle() {
        let (stream, ops) = long_code_fixture();
        let expected = expand(&ops);
        assert_eq!(oracle::inflate(&stream).unwrap(), expected);
        assert_eq!(unbounded(&stream).unwrap(), expected);
        assert_eq!(inflate(&stream, expected.len()).unwrap(), expected);
    }

    #[test]
    fn corrupted_streams_agree_with_the_bitwise_oracle() {
        let (dynamic, _) = long_code_fixture();
        let fixed = deflate_fixed(b"<Block BlockType=\"Gain\" Name=\"g\" SID=\"3\"/>");
        for stream in [dynamic, fixed] {
            for cut in 0..stream.len() {
                let prefix = &stream[..cut];
                assert_eq!(
                    unbounded(prefix).ok(),
                    oracle::inflate(prefix).ok(),
                    "prefix of {cut} bytes"
                );
            }
            for at in 0..stream.len() {
                for bit in 0..8 {
                    let mut flipped = stream.clone();
                    flipped[at] ^= 1 << bit;
                    assert_eq!(
                        unbounded(&flipped).ok(),
                        oracle::inflate(&flipped).ok(),
                        "bit {bit} of byte {at} flipped"
                    );
                }
            }
        }
    }

    /// The bit-at-a-time decoder the table-driven one replaced, kept as
    /// an independent oracle.
    mod oracle {
        use super::super::{
            fixed_literal_lengths, FormatError, DIST_BASE, DIST_EXTRA, LENGTH_BASE, LENGTH_EXTRA,
        };

        struct BitReader<'a> {
            data: &'a [u8],
            pos: usize,
            bit: u32,
        }

        impl BitReader<'_> {
            fn read_bit(&mut self) -> Result<u32, FormatError> {
                let byte = *self
                    .data
                    .get(self.pos)
                    .ok_or_else(|| FormatError::Deflate("unexpected end of stream".into()))?;
                let v = (byte >> self.bit) & 1;
                self.bit += 1;
                if self.bit == 8 {
                    self.bit = 0;
                    self.pos += 1;
                }
                Ok(v as u32)
            }

            fn read_bits(&mut self, n: u32) -> Result<u32, FormatError> {
                let mut v = 0;
                for i in 0..n {
                    v |= self.read_bit()? << i;
                }
                Ok(v)
            }

            fn read_u16(&mut self) -> Result<u16, FormatError> {
                if self.bit != 0 {
                    self.bit = 0;
                    self.pos += 1;
                }
                if self.pos + 2 > self.data.len() {
                    return Err(FormatError::Deflate("truncated stored header".into()));
                }
                let v = u16::from_le_bytes([self.data[self.pos], self.data[self.pos + 1]]);
                self.pos += 2;
                Ok(v)
            }
        }

        struct Huffman {
            counts: [u16; 16],
            symbols: Vec<u16>,
        }

        impl Huffman {
            fn from_lengths(lengths: &[u8]) -> Result<Self, FormatError> {
                let table = super::super::Huffman::from_lengths(lengths)?;
                Ok(Huffman {
                    counts: table.counts,
                    symbols: table.symbols,
                })
            }

            fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, FormatError> {
                let mut code = 0i32;
                let mut first = 0i32;
                let mut index = 0i32;
                for len in 1..16 {
                    code |= r.read_bit()? as i32;
                    let count = self.counts[len] as i32;
                    if code - first < count {
                        return Ok(self.symbols[(index + (code - first)) as usize]);
                    }
                    index += count;
                    first = (first + count) << 1;
                    code <<= 1;
                }
                Err(FormatError::Deflate("invalid huffman code".into()))
            }
        }

        pub(super) fn inflate(data: &[u8]) -> Result<Vec<u8>, FormatError> {
            let mut r = BitReader {
                data,
                pos: 0,
                bit: 0,
            };
            let mut out = Vec::new();
            loop {
                let bfinal = r.read_bits(1)?;
                match r.read_bits(2)? {
                    0 => {
                        let len = r.read_u16()? as usize;
                        let nlen = r.read_u16()? as usize;
                        if len != (!nlen & 0xFFFF) || r.pos + len > r.data.len() {
                            return Err(FormatError::Deflate("bad stored block".into()));
                        }
                        out.extend_from_slice(&r.data[r.pos..r.pos + len]);
                        r.pos += len;
                    }
                    1 => {
                        let lit = Huffman::from_lengths(&fixed_literal_lengths())?;
                        let dist = Huffman::from_lengths(&[5u8; 30])?;
                        block(&mut r, &lit, &dist, &mut out)?;
                    }
                    2 => {
                        let (lit, dist) = dynamic_tables(&mut r)?;
                        block(&mut r, &lit, &dist, &mut out)?;
                    }
                    _ => return Err(FormatError::Deflate("reserved block type".into())),
                }
                if bfinal == 1 {
                    return Ok(out);
                }
            }
        }

        fn dynamic_tables(r: &mut BitReader<'_>) -> Result<(Huffman, Huffman), FormatError> {
            const ORDER: [usize; 19] = [
                16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
            ];
            let hlit = r.read_bits(5)? as usize + 257;
            let hdist = r.read_bits(5)? as usize + 1;
            let hclen = r.read_bits(4)? as usize + 4;
            let mut cl_lengths = [0u8; 19];
            for &idx in ORDER.iter().take(hclen) {
                cl_lengths[idx] = r.read_bits(3)? as u8;
            }
            let cl = Huffman::from_lengths(&cl_lengths)?;
            let mut lengths = Vec::new();
            while lengths.len() < hlit + hdist {
                let (value, n) = match cl.decode(r)? {
                    sym @ 0..=15 => (sym as u8, 1),
                    16 => {
                        let prev = *lengths
                            .last()
                            .ok_or_else(|| FormatError::Deflate("repeat".into()))?;
                        (prev, r.read_bits(2)? + 3)
                    }
                    17 => (0, r.read_bits(3)? + 3),
                    18 => (0, r.read_bits(7)? + 11),
                    _ => return Err(FormatError::Deflate("code-length symbol".into())),
                };
                lengths.extend(std::iter::repeat_n(value, n as usize));
            }
            if lengths.len() != hlit + hdist {
                return Err(FormatError::Deflate("code lengths overflow".into()));
            }
            let lit = Huffman::from_lengths(&lengths[..hlit])?;
            let dist = Huffman::from_lengths(&lengths[hlit..])?;
            Ok((lit, dist))
        }

        fn block(
            r: &mut BitReader<'_>,
            lit: &Huffman,
            dist: &Huffman,
            out: &mut Vec<u8>,
        ) -> Result<(), FormatError> {
            loop {
                match lit.decode(r)? {
                    sym @ 0..=255 => out.push(sym as u8),
                    256 => return Ok(()),
                    sym @ 257..=285 => {
                        let li = (sym - 257) as usize;
                        let len = LENGTH_BASE[li] as usize
                            + r.read_bits(LENGTH_EXTRA[li] as u32)? as usize;
                        let dsym = dist.decode(r)? as usize;
                        if dsym >= 30 {
                            return Err(FormatError::Deflate("distance symbol".into()));
                        }
                        let d = DIST_BASE[dsym] as usize
                            + r.read_bits(DIST_EXTRA[dsym] as u32)? as usize;
                        if d > out.len() {
                            return Err(FormatError::Deflate("distance beyond window".into()));
                        }
                        let start = out.len() - d;
                        for i in 0..len {
                            out.push(out[start + i]);
                        }
                    }
                    _ => return Err(FormatError::Deflate("literal/length symbol".into())),
                }
            }
        }
    }

    /// Property tests (gated: the `proptest` crate is not vendored, so the
    /// default offline build compiles these out; re-add the dev-dependency
    /// and run `cargo test --features proptest` to enable them).
    #[cfg(feature = "proptest")]
    mod props {
        use super::*;
        use proptest::prelude::*;
        proptest! {
            #[test]
            fn prop_fixed_roundtrip(data in prop::collection::vec(any::<u8>(), 0..600)) {
                prop_assert_eq!(unbounded(&deflate_fixed(&data)).unwrap(), data);
            }
        }
    }
}
