//! Binary serialisation of checkpoint images (the protobuf-format
//! analogue; stored on the harness's tmpfs-like in-memory store).
//!
//! A process image keeps its pages as one map from base to frame; the
//! encoding splits it into CRIU's on-disk pair, `pagemap.img` (the bases)
//! followed by `pages.img` (one page per base, in the same order), and
//! decoding checks that the pair agrees before it builds the map again.
//! Each table is read naming the fewest bytes one entry takes, its
//! fixed-width fields with any string empty.

use crate::images::*;
use crate::CriuError;
use dynacut_obj::wire::{ByteCount, Reader, Sink, WireError};
use dynacut_obj::{Perms, PAGE_SIZE};
use dynacut_vm::{ConnId, Pid, SharedFrame, SigAction, Signal};
use std::collections::BTreeMap;

const MAGIC: &[u8; 4] = b"DCR1";

fn put_perms(buf: &mut impl Sink, perms: Perms) {
    buf.put_u8((perms.read as u8) | (perms.write as u8) << 1 | (perms.exec as u8) << 2);
}

fn get_perms(reader: &mut Reader) -> Result<Perms, WireError> {
    let bits = reader.u8()?;
    Ok(Perms {
        read: bits & 1 != 0,
        write: bits & 2 != 0,
        exec: bits & 4 != 0,
    })
}

impl CheckpointImage {
    /// Serialises the checkpoint to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }

    /// Exactly `to_bytes().len()`, without building the buffer: the
    /// size the checkpoint would take on the image store.
    pub fn encoded_len(&self) -> usize {
        let mut count = ByteCount(0);
        self.encode(&mut count);
        count.0
    }

    fn encode(&self, buf: &mut impl Sink) {
        buf.put_slice(MAGIC);
        buf.put_u64_le(self.time_ns);
        buf.put_count(self.procs.len());
        for image in &self.procs {
            encode_proc(buf, image);
        }
    }

    /// Parses a checkpoint previously produced by
    /// [`CheckpointImage::to_bytes`].
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::BadImage`] on malformed input.
    pub fn from_bytes(raw: &[u8]) -> Result<CheckpointImage, CriuError> {
        let mut reader = Reader::new(raw);
        reader.magic(MAGIC)?;
        let time_ns = reader.u64()?;
        // A process takes at least the bytes of its sixteen registers.
        let procs = reader.table(16 * 8, decode_proc)?;
        reader.finish()?;
        Ok(CheckpointImage { procs, time_ns })
    }
}

fn encode_proc(buf: &mut impl Sink, image: &ProcessImage) {
    buf.put_u8(image.exec_pages_dumped as u8);
    encode_core(buf, &image.core);
    encode_mm(buf, &image.mm);
    encode_pages(buf, &image.pages);
    encode_files(buf, &image.files);
    encode_tcp(buf, &image.tcp);
}

fn decode_proc(reader: &mut Reader) -> Result<ProcessImage, WireError> {
    let exec_pages_dumped = reader.u8()? != 0;
    let core = decode_core(reader)?;
    let mm = decode_mm(reader)?;
    let pages = decode_pages(reader)?;
    let files = decode_files(reader)?;
    let tcp = decode_tcp(reader)?;
    Ok(ProcessImage {
        core,
        mm,
        pages,
        files,
        tcp,
        exec_pages_dumped,
    })
}

fn encode_core(buf: &mut impl Sink, core: &CoreImage) {
    buf.put_u32_le(core.pid.0);
    match core.parent {
        Some(pid) => {
            buf.put_u8(1);
            buf.put_u32_le(pid.0);
        }
        None => buf.put_u8(0),
    }
    buf.put_str(&core.name);
    for reg in core.regs {
        buf.put_u64_le(reg);
    }
    buf.put_u64_le(core.pc);
    buf.put_u64_le(core.flags_bits);
    for action in core.sigactions {
        buf.put_u64_le(action.handler);
        buf.put_u64_le(action.restorer);
        buf.put_u64_le(action.mask);
    }
    buf.put_u32_le(core.signal_depth);
    buf.put_u64_le(core.insns_retired);
    buf.put_u64_le(core.syscall_filter);
    buf.put_count(core.modules.len());
    for module in &core.modules {
        buf.put_str(&module.name);
        buf.put_u64_le(module.base);
    }
}

fn decode_core(reader: &mut Reader) -> Result<CoreImage, WireError> {
    let pid = Pid(reader.u32()?);
    let parent = match reader.u8()? {
        0 => None,
        1 => Some(Pid(reader.u32()?)),
        other => return Err(WireError(format!("bad parent flag {other}"))),
    };
    let name = reader.str()?;
    let mut regs = [0u64; 16];
    for reg in &mut regs {
        *reg = reader.u64()?;
    }
    let pc = reader.u64()?;
    let flags_bits = reader.u64()?;
    let mut sigactions = [SigAction::default(); Signal::COUNT];
    for action in &mut sigactions {
        action.handler = reader.u64()?;
        action.restorer = reader.u64()?;
        action.mask = reader.u64()?;
    }
    let signal_depth = reader.u32()?;
    let insns_retired = reader.u64()?;
    let syscall_filter = reader.u64()?;
    let modules = reader.table(12, |r| {
        Ok(ModuleRef {
            name: r.str()?,
            base: r.u64()?,
        })
    })?;
    Ok(CoreImage {
        pid,
        parent,
        name,
        regs,
        pc,
        flags_bits,
        sigactions,
        signal_depth,
        insns_retired,
        modules,
        syscall_filter,
    })
}

fn encode_mm(buf: &mut impl Sink, mm: &MmImage) {
    buf.put_count(mm.vmas.len());
    for vma in &mm.vmas {
        buf.put_u64_le(vma.start);
        buf.put_u64_le(vma.end);
        put_perms(buf, vma.perms);
        buf.put_str(&vma.name);
    }
}

fn decode_mm(reader: &mut Reader) -> Result<MmImage, WireError> {
    let vmas = reader.table(21, |r| {
        Ok(VmaImage {
            start: r.u64()?,
            end: r.u64()?,
            perms: get_perms(r)?,
            name: r.str()?,
        })
    })?;
    Ok(MmImage { vmas })
}

/// `pagemap.img`, the populated bases in address order, then
/// `pages.img`, their bytes in the same order.
fn encode_pages(buf: &mut impl Sink, pages: &BTreeMap<u64, SharedFrame>) {
    buf.put_count(pages.len());
    for &base in pages.keys() {
        buf.put_u64_le(base);
    }
    buf.put_u64_le(pages.len() as u64 * PAGE_SIZE);
    for frame in pages.values() {
        buf.put_slice(frame.bytes());
    }
}

/// The inverse of [`encode_pages`]. The two files must agree: every
/// pagemap entry page-aligned and strictly above the one before it, and
/// exactly one page of payload per entry.
fn decode_pages(reader: &mut Reader) -> Result<BTreeMap<u64, SharedFrame>, WireError> {
    let bases = reader.table(8, Reader::u64)?;
    let payload = reader.bytes()?;
    if payload.len() as u64 != bases.len() as u64 * PAGE_SIZE {
        return Err(WireError(format!(
            "pages.img holds {} bytes but pagemap.img lists {} pages",
            payload.len(),
            bases.len()
        )));
    }
    let mut pages = BTreeMap::new();
    for (&base, page) in bases.iter().zip(payload.as_chunks().0) {
        if !base.is_multiple_of(PAGE_SIZE) {
            return Err(WireError(format!(
                "pagemap entry {base:#x} is not page-aligned"
            )));
        }
        if let Some((&last, _)) = pages.last_key_value() {
            if base <= last {
                return Err(WireError(format!(
                    "pagemap entry {base:#x} is not above the entry {last:#x} before it"
                )));
            }
        }
        pages.insert(base, SharedFrame::new(page));
    }
    Ok(pages)
}

fn encode_files(buf: &mut impl Sink, files: &FilesImage) {
    buf.put_count(files.fds.len());
    for (fd, entry) in &files.fds {
        buf.put_u32_le(*fd);
        match entry {
            FdImage::Console => buf.put_u8(0),
            FdImage::File { path, pos } => {
                buf.put_u8(1);
                buf.put_str(path);
                buf.put_u64_le(*pos);
            }
            FdImage::Socket => buf.put_u8(2),
            FdImage::Listener { port } => {
                buf.put_u8(3);
                buf.put_u16_le(*port);
            }
            FdImage::Conn { id } => {
                buf.put_u8(4);
                buf.put_u64_le(id.0);
            }
        }
    }
}

fn decode_files(reader: &mut Reader) -> Result<FilesImage, WireError> {
    let fds = reader.table(5, |r| {
        let fd = r.u32()?;
        let entry = match r.u8()? {
            0 => FdImage::Console,
            1 => FdImage::File {
                path: r.str()?,
                pos: r.u64()?,
            },
            2 => FdImage::Socket,
            3 => FdImage::Listener { port: r.u16()? },
            4 => FdImage::Conn {
                id: ConnId(r.u64()?),
            },
            other => return Err(WireError(format!("bad fd kind {other}"))),
        };
        Ok((fd, entry))
    })?;
    Ok(FilesImage { fds })
}

fn encode_tcp(buf: &mut impl Sink, tcp: &TcpImage) {
    buf.put_count(tcp.conns.len());
    for conn in &tcp.conns {
        buf.put_u64_le(conn.id.0);
        buf.put_u16_le(conn.port);
        buf.put_vec(&conn.to_server);
        buf.put_vec(&conn.to_client);
    }
}

fn decode_tcp(reader: &mut Reader) -> Result<TcpImage, WireError> {
    let conns = reader.table(26, |r| {
        Ok(TcpConnImage {
            id: ConnId(r.u64()?),
            port: r.u16()?,
            to_server: r.bytes()?.to_vec(),
            to_client: r.bytes()?.to_vec(),
        })
    })?;
    Ok(TcpImage { conns })
}
