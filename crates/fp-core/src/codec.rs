//! The one byte codec every persisted or transmitted format is built on.
//!
//! Wire frames (`fp-serve`), segment sections and the manifest
//! (`fp-store`) all share these conventions, and now share this code:
//! every multi-byte scalar is little-endian, floats travel as raw
//! IEEE-754 bits (`to_bits` / `from_bits`, never a lossy text round
//! trip), and integrity is CRC32 (IEEE 802.3, reflected). A new byte
//! format adds its layout on top of [`Enc`] / [`Dec`] / [`crc32`]; it does
//! not add another cursor or another checksum.
//!
//! Decoding is total: every read that would run past the buffer returns
//! [`DecodeErrorKind::Truncated`] instead of slicing out of range, and
//! declared element counts are multiplied with overflow checks *before*
//! any allocation ([`Dec::checked_count`]) so a hostile header cannot
//! request an absurd reserve. Each format crate maps [`DecodeError`] into
//! its own typed error (`WireError`, `StoreError`) with a `From` impl.

use std::fmt;

/// Eight lookup tables for slice-by-8: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC_TABLES[t][i]` advances byte `i` through
/// `t` extra zero bytes, letting the hot loop fold 8 input bytes per
/// iteration. Identical output to the byte-wise algorithm for every
/// input — only the walk order through the same polynomial differs.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// A running CRC32 (IEEE, slice-by-8): feed a logical byte stream in any
/// number of [`update`](Crc32::update) calls — the split points do not
/// change the result — and read [`value`](Crc32::value) at any point. The
/// wire frame checksum covers request id + length + payload, which live
/// in separate buffers on the read path; streaming avoids concatenating
/// them. The default value is the checksum of the empty stream, 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Crc32(u32);

impl Crc32 {
    /// Folds `bytes` into the running checksum. Segments checksum every
    /// byte of a multi-megabyte file on open, so this is a measured hot
    /// path (`store/open_10k`).
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = !self.0;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            crc = CRC_TABLES[7][(lo & 0xFF) as usize]
                ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[4][(lo >> 24) as usize]
                ^ CRC_TABLES[3][(hi & 0xFF) as usize]
                ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = !crc;
    }

    /// The CRC32 of everything fed so far.
    pub fn value(self) -> u32 {
        self.0
    }
}

/// CRC32 (IEEE) of `bytes`. Check value: `crc32(b"123456789") ==
/// 0xCBF4_3926`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(bytes);
    crc.value()
}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bit pattern.
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends `bytes` verbatim.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Why a [`Dec`] refused to go on: `what` names the artifact being decoded
/// (`"segment"`, `"manifest"`, `"frame"`), `context` the structure within
/// it, so the format crates can build their own typed errors without
/// re-deriving where the cursor was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The artifact being decoded.
    pub what: &'static str,
    /// The structure the cursor was in.
    pub context: &'static str,
    /// What went wrong there.
    pub kind: DecodeErrorKind,
}

/// The three ways a decode can fail structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// The bytes ran out — or a declared element count cannot fit in the
    /// bytes that remain — before the structure was complete.
    Truncated,
    /// This `u64` field must index memory and does not fit `usize` here.
    Overflow(u64),
    /// [`Dec::finish`] found this many unconsumed bytes: the declared
    /// structure disagrees with the length of the region holding it.
    Trailing(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let DecodeError { what, context, .. } = self;
        match self.kind {
            DecodeErrorKind::Truncated => write!(f, "{what}: truncated while reading {context}"),
            DecodeErrorKind::Overflow(v) => write!(f, "{what}: {context} value {v} exceeds usize"),
            DecodeErrorKind::Trailing(n) => write!(f, "{what}: {n} trailing bytes after {context}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Bounds-checked little-endian decoder over a borrowed byte slice.
///
/// The cursor carries two labels into every error: `what` (the artifact,
/// fixed at construction) and `context` (the structure currently being
/// read, moved along with [`at`](Dec::at)).
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    what: &'static str,
    context: &'static str,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8], what: &'static str, context: &'static str) -> Dec<'a> {
        Dec { buf, what, context }
    }

    /// Relabels the structure being read; later errors name `context`.
    /// Returns the cursor so the first read of a structure can name it.
    pub fn at(&mut self, context: &'static str) -> &mut Self {
        self.context = context;
        self
    }

    fn err(&self, kind: DecodeErrorKind) -> DecodeError {
        DecodeError {
            what: self.what,
            context: self.context,
            kind,
        }
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(self.err(DecodeErrorKind::Truncated));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64` that must fit `usize` (sizes and tuning
    /// parameters are stored at a fixed 8 bytes regardless of platform).
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let value = self.u64()?;
        usize::try_from(value).map_err(|_| self.err(DecodeErrorKind::Overflow(value)))
    }

    /// An `f64` from its raw IEEE-754 bit pattern.
    pub fn f64_bits(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Validates that `count` elements of at least `min_bytes` each can
    /// still fit in the remaining buffer, with overflow-checked
    /// arithmetic, and returns `count as usize`. Call this *before*
    /// allocating — it converts a hostile 2^60 element count into a typed
    /// [`DecodeErrorKind::Truncated`] instead of an OOM reserve.
    pub fn checked_count(&self, count: u64, min_bytes: usize) -> Result<usize, DecodeError> {
        usize::try_from(count)
            .ok()
            .filter(|count| {
                count
                    .checked_mul(min_bytes)
                    .is_some_and(|need| need <= self.buf.len())
            })
            .ok_or_else(|| self.err(DecodeErrorKind::Truncated))
    }

    /// `count` fixed-size records of `N` bytes each, behind one count
    /// check and one bounds check for the whole run.
    pub fn records<const N: usize>(
        &mut self,
        count: u64,
    ) -> Result<impl Iterator<Item = [u8; N]> + 'a, DecodeError> {
        let count = self.checked_count(count, N)?;
        let raw = self.bytes(count * N)?.chunks_exact(N);
        Ok(raw.map(|c| c.try_into().expect("N-byte chunk")))
    }

    /// Bulk-decodes `count` little-endian `u64`s.
    pub fn u64_slice(&mut self, count: u64) -> Result<Vec<u64>, DecodeError> {
        Ok(self.records(count)?.map(u64::from_le_bytes).collect())
    }

    /// Bulk-decodes `count` little-endian `u32`s.
    pub fn u32_slice(&mut self, count: u64) -> Result<Vec<u32>, DecodeError> {
        Ok(self.records(count)?.map(u32::from_le_bytes).collect())
    }

    /// Bulk-decodes `count` `f64`s from their raw IEEE-754 bit patterns.
    pub fn f64_slice(&mut self, count: u64) -> Result<Vec<f64>, DecodeError> {
        let bits = self.records(count)?.map(u64::from_le_bytes);
        Ok(bits.map(f64::from_bits).collect())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Asserts the cursor consumed the buffer exactly. Trailing garbage in
    /// a checksummed region means the declared structure disagrees with
    /// the region's length — corrupt, not ignorable.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(self.err(DecodeErrorKind::Trailing(self.buf.len())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Independent byte-at-a-time, bit-at-a-time CRC32.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFFu32, |mut crc, &b| {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
            crc
        })
    }

    #[test]
    fn streaming_one_shot_and_bitwise_crc_agree_at_every_split() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // 257 bytes straddle every remainder class of the 8-byte chunking.
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(0x9E37) >> 3) as u8)
            .collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                bitwise_crc32(&data[..len]),
                "len {len}"
            );
        }
        let want = crc32(&data);
        for split in 0..=data.len() {
            let mut crc = Crc32::default();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.value(), want, "split {split}");
        }
    }

    #[test]
    fn encoder_and_decoder_round_trip_every_scalar() {
        let mut enc = Enc::new();
        enc.u8(0xAB);
        enc.u16(0xBEEF);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX - 1);
        enc.f64_bits(-0.0);
        enc.u64(77);
        enc.raw(&[1, 2, 3]);
        let bytes = enc.into_bytes();
        assert_eq!(bytes.len(), 1 + 2 + 4 + 8 + 8 + 8 + 3);
        let mut dec = Dec::new(&bytes, "frame", "scalars");
        assert_eq!(dec.u8().unwrap(), 0xAB);
        assert_eq!(dec.u16().unwrap(), 0xBEEF);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.f64_bits().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(dec.usize().unwrap(), 77);
        assert_eq!(dec.bytes(3).unwrap(), &[1, 2, 3]);
        dec.finish().unwrap();
    }

    #[test]
    fn decoder_rejects_overrun_overflowing_counts_and_trailing_bytes() {
        let bytes = [1u8, 2, 3, 4];
        let mut dec = Dec::new(&bytes, "segment", "x");
        assert_eq!(dec.u32().unwrap(), u32::from_le_bytes(bytes));
        dec.at("y");
        let err = dec.bytes(1).unwrap_err();
        assert_eq!(
            (err.what, err.context, err.kind),
            ("segment", "y", DecodeErrorKind::Truncated)
        );

        let dec = Dec::new(&bytes, "segment", "counts");
        assert!(dec.checked_count(u64::MAX, 8).is_err());
        assert!(dec.checked_count(2, usize::MAX).is_err());
        assert!(dec.checked_count(1, 4).is_ok());
        assert!(dec.checked_count(2, 4).is_err());
        let mut dec = dec;
        assert!(dec.u64_slice(u64::MAX).is_err());
        assert!(dec.u32_slice(2).is_err());
        assert_eq!(dec.u32_slice(1).unwrap(), vec![u32::from_le_bytes(bytes)]);
        dec.finish().unwrap();

        // Trailing garbage is an error, not ignorable.
        let mut dec = Dec::new(&[0u8; 6], "manifest", "tail");
        dec.u32().unwrap();
        let err = dec.finish().unwrap_err();
        assert_eq!(
            (err.what, err.context, err.kind),
            ("manifest", "tail", DecodeErrorKind::Trailing(2))
        );
    }
}
