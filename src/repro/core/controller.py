"""Memory-controller model integrating COP with DRAM contents.

:class:`ProtectedMemory` is the *functional* layer: it owns the stored
64-byte images, applies the protection scheme of the configured mode on
every write/read, and reports which extra ECC-region blocks an access
touches so the performance model (which owns the LLC and the DRAM timing)
can charge for them.  Modes:

``UNPROTECTED``
    Raw storage, no detection or correction — the paper's baseline for the
    error-rate reductions of Fig. 10.
``COP``
    Compress + inline-ECC when possible, raw otherwise; incompressible
    aliases are rejected (the LLC must pin them).  No extra DRAM traffic.
``COP_ER``
    COP plus the ECC region for incompressible blocks (pointer embedding,
    entry reuse on writeback, de-aliasing by pointer choice).
``ECC_REGION``
    The Virtualized-ECC-like baseline: a contiguous region with a 2-byte
    entry per data block holding an 11-bit (523,512) whole-block code; ECC
    blocks are touched on *every* miss and writeback.
``EMBEDDED_ECC``
    The Zheng et al. layout the paper discusses in Section 2: the same
    per-block ECC storage, but collocated at the end of each *DRAM row*,
    so the extra access usually row-hits ("can improve the ECC access
    latency, although the same storage overhead ... is imposed").
``MEMZIP``
    Shafiee et al.'s MemZip as characterised by the paper: per-block
    compression moves the embedded check bits inline for compressible
    blocks (no extra access), but space stays reserved for *all* blocks
    and explicit per-block compression-tracking metadata is required —
    modelled here as the ``_compressed`` set, which is exactly the
    bookkeeping COP's code-word detection eliminates (COP's byte-level
    ``read`` never consults it).
``ECC_DIMM``
    Conventional (72,64) SECDED with a ninth chip — the reliability
    reference point.

Content models.  Each mode's bookkeeping (counters, ``contents`` keys,
entry and region state, trace events, :class:`AccessResult` shapes) lives
once, in one private write path and one private read path, reached
through two pairs of entry points that differ only in each access's
first step:

* ``write`` / ``read`` take real bytes: the write classifies a block by
  encoding it and stores the encoded image, its side-store parity and
  its COP-ER entry payload; the read decodes and corrects that image.
* ``fast_write`` / ``fast_read`` serve the simulator's classification
  oracle (``repro.simulation.batch``): the write is handed the block's
  classification (compressible / alias, plus a content thunk for COP-ER's
  pointer de-aliasing), stores :data:`PLACEHOLDER` and computes no
  payload; the read takes the compression status the write path
  recorded.  On the fault-free path ``decode(encode(x)) == x``, so both
  models agree on everything but the payload bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro._bits import bytes_to_int, int_to_bytes
from repro.compression.base import BLOCK_BYTES
from repro.core.codec import COPCodec
from repro.core.config import COPConfig
from repro.core.coper import ENTRIES_PER_BLOCK, CoperBlockFormat, ECCRegion
from repro.ecc.codes import code_72_64, code_523_512
from repro.ecc.hsiao import CodeStatus

__all__ = [
    "ProtectionMode",
    "BlockNotWrittenError",
    "ControllerStats",
    "AccessResult",
    "ProtectedMemory",
    "PLACEHOLDER",
]

#: Data blocks whose ECC entries share one 64-byte ECC block in the
#: ECC-Region baseline (2-byte entry per block "to facilitate addressing").
_BASELINE_ENTRIES_PER_BLOCK = 32

#: Stand-in image stored by the classification-oracle entry points, and
#: the payload of every line the simulator never reads back (ECC metadata
#: blocks, every line under the oracle).
PLACEHOLDER = bytes(BLOCK_BYTES)


class ProtectionMode(enum.Enum):
    UNPROTECTED = "unprotected"
    COP = "cop"
    COP_ER = "cop-er"
    ECC_REGION = "ecc-region"
    EMBEDDED_ECC = "embedded-ecc"
    MEMZIP = "memzip"
    ECC_DIMM = "ecc-dimm"


class BlockNotWrittenError(KeyError):
    """A read (or bit flip) targeted a block address never written.

    Subclasses :class:`KeyError` so existing ``except KeyError`` callers
    keep working; the service front end maps it to a clean typed protocol
    error instead of an opaque internal failure, and ``read`` counts the
    event in :attr:`ControllerStats.read_misses`.
    """

    def __init__(self, addr: int) -> None:
        super().__init__(f"block {addr:#x} was never written")
        self.addr = addr

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument; keep the message readable.
        return f"block {self.addr:#x} was never written"


@dataclass
class ControllerStats:
    reads: int = 0
    read_misses: int = 0
    writes: int = 0
    compressed_reads: int = 0
    compressed_writes: int = 0
    raw_writes: int = 0
    alias_rejects: int = 0
    corrected_blocks: int = 0
    uncorrectable_blocks: int = 0
    entry_allocations: int = 0
    entry_reuses: int = 0
    entry_frees: int = 0
    ecc_block_reads: int = 0
    ecc_block_writes: int = 0

    @property
    def compressed_write_fraction(self) -> float:
        total = self.compressed_writes + self.raw_writes
        return self.compressed_writes / total if total else 0.0

    def as_dict(self) -> dict[str, int]:
        """Every counter field, keyed by name.

        Reporting code iterates this instead of plucking fields by hand,
        so a counter added here can never be silently dropped downstream.
        """
        from dataclasses import fields

        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "ControllerStats") -> "ControllerStats":
        """Accumulate another instance's counts into this one."""
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)
        return self


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one controller-level read or write.

    ``ecc_reads``/``ecc_writes`` list the extra ECC-region block addresses
    this access touches; the system model runs them through the LLC (ECC
    blocks are cacheable) before charging DRAM time.
    """

    data: Optional[bytes] = None
    accepted: bool = True
    compressed: bool = False
    was_uncompressed: bool = False
    corrected: bool = False
    uncorrectable: bool = False
    decompress_cycles: int = 0
    ecc_reads: tuple[int, ...] = ()
    ecc_writes: tuple[int, ...] = ()


#: Shared write outcomes.  ``AccessResult`` is frozen, so identical results
#: can be one object — constructing a nine-field frozen dataclass per
#: access is measurable in the simulator.  Addr-dependent write results
#: (ECC tuples) are cached per instance.
_RESULT_WRITE_OK = AccessResult()
_RESULT_WRITE_REJECTED = AccessResult(accepted=False)
_RESULT_WRITE_COMPRESSED = AccessResult(compressed=True)


class ProtectedMemory:
    """Functional main memory behind one protection mode."""

    def __init__(
        self,
        mode: ProtectionMode = ProtectionMode.COP,
        config: Optional[COPConfig] = None,
        capacity_bytes: int = 8 << 30,
        region_base: Optional[int] = None,
        obs=None,
    ) -> None:
        from repro.obs import NULL_OBS

        self.mode = mode
        self.config = config or COPConfig.four_byte()
        self.capacity_bytes = capacity_bytes
        self.stats = ControllerStats()
        self.obs = obs if obs is not None else NULL_OBS
        self.contents: dict[int, bytes] = {}
        # Data space is assumed below region_base; the ECC structures of
        # COP-ER and the baseline live above it so addresses never collide.
        self.region_base = (
            region_base if region_base is not None else (capacity_bytes * 7) // 8
        )

        self.codec: Optional[COPCodec] = None
        if mode in (
            ProtectionMode.COP,
            ProtectionMode.COP_ER,
            ProtectionMode.MEMZIP,
        ):
            self.codec = COPCodec(self.config)
            if self.config.use_batch:
                # Content-keyed memo cache in front of the scalar codec —
                # bit-for-bit identical results, hit/miss counters under
                # kernels.memo.* (see docs/kernels.md).
                from repro.kernels import MemoizedCodec

                self.codec = MemoizedCodec(  # type: ignore[assignment]
                    self.codec, metrics=self.obs.metrics
                )
        #: Addresses whose resident image is stored compressed.  MemZip's
        #: explicit per-block metadata, kept by both of its content models;
        #: COP / COP-ER keep it only for placeholder images, where
        #: ``fast_read`` has no bytes to count code words in.
        self._compressed: set[int] = set()
        from repro.memory.address import AddressMapper

        self._mapper = AddressMapper()

        self.region: Optional[ECCRegion] = None
        self.formatter: Optional[CoperBlockFormat] = None
        self.entry_of: dict[int, int] = {}  # data addr -> ECC entry index
        self.ever_incompressible: set[int] = set()
        if mode is ProtectionMode.COP_ER:
            self.region = ECCRegion(metrics=self.obs.metrics)
            self.formatter = CoperBlockFormat(self.codec, self.region)

        self._wide_code = code_523_512()
        self._dimm_code = code_72_64()
        #: Side store of check bits for the baseline / ECC-DIMM modes.
        self._parity: dict[int, int] = {}
        #: Payload-free outcomes, one object per shape (the mode is fixed
        #: per instance): writes carrying an ECC tuple, keyed by the ECC
        #: *block* address (for COP-ER the entry block, which can differ
        #: between writes of the same data address), and every read
        #: without bytes, keyed by ``(compressed, ECC block or None)``.
        self._shared_results: dict[object, AccessResult] = {}

    # -- address helpers -----------------------------------------------------

    def entry_block_addr(self, entry_index: int) -> int:
        """DRAM address of the ECC-region block holding a COP-ER entry."""
        return self.region_base + (entry_index // ENTRIES_PER_BLOCK) * BLOCK_BYTES

    def baseline_ecc_addr(self, addr: int) -> int:
        """DRAM address of the baseline's ECC block for a data block."""
        index = addr // BLOCK_BYTES
        return self.region_base + (index // _BASELINE_ENTRIES_PER_BLOCK) * BLOCK_BYTES

    def is_metadata_addr(self, addr: int) -> bool:
        """Is this address ECC metadata rather than application data?

        The region-based modes keep metadata above ``region_base``; the
        embedded layouts reserve the last block of every DRAM row.  The
        system model uses this to route dirty LLC evictions (metadata
        lines are plain DRAM writes, not re-encoded data writebacks).
        """
        if self.mode in (ProtectionMode.EMBEDDED_ECC, ProtectionMode.MEMZIP):
            last_col = self._mapper.geometry.blocks_per_row - 1
            return self._mapper.map(addr).col == last_col
        return addr >= self.region_base

    def embedded_ecc_addr(self, addr: int) -> int:
        """ECC block collocated in the same DRAM row as the data block.

        The embedded-ECC layout stores a row's check bits in that row's
        last blocks, so the metadata access almost always row-hits when
        the data access just opened the row.
        """
        location = self._mapper.map(addr)
        last_col = self._mapper.geometry.blocks_per_row - 1
        return self._mapper.compose(location._replace(col=last_col))

    def _ecc_addr(self, addr: int) -> int:
        """ECC block holding a data block's whole-block check bits.

        The ECC-Region baseline packs them into its region; the embedded
        layouts (Embedded ECC, MemZip's raw blocks) at the row's end.
        """
        if self.mode is ProtectionMode.ECC_REGION:
            return self.baseline_ecc_addr(addr)
        return self.embedded_ecc_addr(addr)

    # -- write path ------------------------------------------------------------

    def write(
        self, addr: int, data: bytes, events: Optional[list] = None
    ) -> AccessResult:
        """Store a block (a writeback from the LLC or initial population).

        ``events`` collects trace events instead of emitting them (the
        simulator defers them to its wave flush); ``None`` emits directly.
        """
        if len(data) != BLOCK_BYTES:
            raise ValueError("block must be 64 bytes")
        return self._write(addr, bytes(data), False, False, None, events)

    def fast_write(
        self,
        addr: int,
        compressible: bool,
        alias: bool = False,
        content: Optional[Callable[[], bytes]] = None,
        events: Optional[list] = None,
    ) -> AccessResult:
        """:meth:`write` by classification, for the oracle content model.

        ``compressible``/``alias`` are the block's content classification
        (``compress(...) is not None`` / ``codec.is_alias``); ``content``
        is a lazy thunk producing the raw 64 bytes, consulted only when
        COP-ER allocates an entry (pointer de-aliasing is content
        dependent).  Stores :data:`PLACEHOLDER`; ``events`` as in
        :meth:`write`.
        """
        return self._write(addr, None, compressible, alias, content, events)

    def _write(
        self,
        addr: int,
        data: Optional[bytes],
        compressible: bool,
        alias: bool,
        content: Optional[Callable[[], bytes]],
        events: Optional[list],
    ) -> AccessResult:
        """Every mode's write bookkeeping, for both content models.

        With ``data`` the block is classified by encoding it and every
        payload is produced: the stored image, the ``_parity`` side store
        and the COP-ER entry.  Without it (``data is None``) the given
        classification stands and only the placeholder is stored.
        """
        if addr % BLOCK_BYTES:
            raise ValueError("address must be block aligned")
        stats = self.stats
        stats.writes += 1
        mode = self.mode
        codec = self.codec
        stored = PLACEHOLDER if data is None else data
        retired: tuple[int, ...] = ()
        ecc_addr: Optional[int] = None

        if codec is None:  # unprotected, ECC DIMM, ECC Region, Embedded ECC
            compressible = False
            if mode is not ProtectionMode.UNPROTECTED:
                if data is not None:
                    self._parity[addr] = self._check_bits(data)
                if mode is not ProtectionMode.ECC_DIMM:
                    ecc_addr = self._ecc_addr(addr)
        else:
            if data is not None:
                encoded = codec.encode(data)
                compressible = encoded.compressed
                stored = encoded.stored
            if compressible:
                retired = self._retire_entry_if_any(addr)
            else:
                self.ever_incompressible.add(addr)
                if mode is ProtectionMode.MEMZIP:
                    # Space at the row end stays reserved either way
                    # (MemZip is "only a performance optimization, and
                    # space must still be reserved for ECC regardless of
                    # compressibility").
                    if data is not None:
                        self._parity[addr] = self._check_bits(data)
                    ecc_addr = self._ecc_addr(addr)
                elif mode is ProtectionMode.COP:
                    if data is not None:
                        alias = codec.is_alias(data)
                    if alias:
                        return self._reject(addr, events)
                else:
                    # COP-ER: embed a pointer, park displaced data in the
                    # region.
                    entry = self._coper_entry(addr, data, content)
                    if entry is None:
                        return self._reject(addr, events)
                    if data is not None:
                        assert self.formatter is not None
                        stored = self.formatter.update_entry(entry, data)
                    ecc_addr = self.entry_block_addr(entry)

        self.contents[addr] = stored
        if codec is not None and (data is None or mode is ProtectionMode.MEMZIP):
            # Record the status where no later read can recover it from
            # the stored bytes: MemZip's explicit metadata, and every
            # placeholder image.
            if compressible:
                self._compressed.add(addr)
            else:
                self._compressed.discard(addr)
        if compressible:
            stats.compressed_writes += 1
            if retired:
                return AccessResult(compressed=True, ecc_writes=retired)
            return _RESULT_WRITE_COMPRESSED
        stats.raw_writes += 1
        if ecc_addr is None:
            return _RESULT_WRITE_OK
        stats.ecc_block_writes += 1
        result = self._shared_results.get(ecc_addr)
        if result is None:
            # In the compressing modes an ECC write means a raw block.
            result = AccessResult(
                was_uncompressed=codec is not None, ecc_writes=(ecc_addr,)
            )
            self._shared_results[ecc_addr] = result
        return result

    def _coper_entry(
        self,
        addr: int,
        data: Optional[bytes],
        content: Optional[Callable[[], bytes]],
    ) -> Optional[int]:
        """The COP-ER entry for an incompressible block: its existing one,
        or a newly allocated de-aliasing one (None: refuse the block)."""
        entry = self.entry_of.get(addr)
        if entry is not None:
            self.stats.entry_reuses += 1
            return entry
        assert self.formatter is not None and self.region is not None
        if data is None:
            if content is None:
                raise ValueError(
                    "COP-ER fast_write needs the block content to allocate "
                    "a de-aliased entry"
                )
            data = content()
        placed = self.formatter.allocate(data)
        if placed is None:
            return None
        entry, aliased = placed
        if aliased:
            self.region.free(entry)
            return None
        self.entry_of[addr] = entry
        self.stats.entry_allocations += 1
        return entry

    def _reject(self, addr: int, events: Optional[list]) -> AccessResult:
        """Refuse an incompressible alias (the LLC must pin the block)."""
        self.stats.alias_rejects += 1
        self._emit("alias_reject", addr, events)
        return _RESULT_WRITE_REJECTED

    def _retire_entry_if_any(self, addr: int) -> tuple[int, ...]:
        """Free a stale COP-ER entry when a block becomes compressible."""
        if self.mode is not ProtectionMode.COP_ER:
            return ()
        entry = self.entry_of.pop(addr, None)
        if entry is None:
            return ()
        assert self.region is not None
        self.region.free(entry)
        self.stats.entry_frees += 1
        self.stats.ecc_block_writes += 1
        return (self.entry_block_addr(entry),)

    # -- read path ---------------------------------------------------------------

    def read(self, addr: int, events: Optional[list] = None) -> AccessResult:
        """Fetch and (per mode) verify/correct/decompress a block.

        ``events`` collects the ``corrected`` / ``uncorrectable`` trace
        events as in :meth:`write`.  Raises :class:`BlockNotWrittenError`
        (a ``KeyError``) for a block that was never written, counting it
        in ``stats.read_misses``.
        """
        return self._read(addr, True, events)

    def fast_read(self, addr: int, events: Optional[list] = None) -> AccessResult:
        """:meth:`read` by classification, for the oracle content model.

        The compression status is the one the write path recorded rather
        than a decode of the stored image; on the fault-free path the two
        always agree (compressed images decode compressed, raw images were
        de-aliased before storing).  Nothing is ever corrected, so
        ``events`` never receives anything.
        """
        return self._read(addr, False, events)

    def _read(self, addr: int, decode: bool, events: Optional[list]) -> AccessResult:
        """Every mode's read bookkeeping, for both content models.

        With ``decode`` the stored image is decoded and corrected; without
        it the stored placeholder is the data and nothing is corrected.
        """
        stored = self.contents.get(addr)
        stats = self.stats
        if stored is None:
            stats.read_misses += 1
            raise BlockNotWrittenError(addr)
        stats.reads += 1
        mode = self.mode
        codec = self.codec
        data, corrected, bad = stored, False, False
        compressed = False
        latency = 0
        ecc_addr: Optional[int] = None

        if codec is None:  # unprotected, ECC DIMM, ECC Region, Embedded ECC
            if mode is not ProtectionMode.UNPROTECTED:
                if decode:
                    data, corrected, bad = self._correct(addr, stored)
                if mode is not ProtectionMode.ECC_DIMM:
                    ecc_addr = self._ecc_addr(addr)
        else:
            decoded = None
            if decode and mode is not ProtectionMode.MEMZIP:
                # COP keeps no metadata: the valid code words in the stored
                # bytes say whether the block is compressed.
                decoded = codec.decode(stored)
                compressed = decoded.is_compressed
            else:
                compressed = addr in self._compressed
            if compressed:
                if decode:
                    if decoded is None:
                        decoded = codec.decode(stored)
                    data = decoded.data
                    corrected = decoded.corrected_words > 0
                    bad = decoded.uncorrectable
                latency = self.config.decompress_latency
                stats.compressed_reads += 1
            elif mode is ProtectionMode.MEMZIP:
                if decode:
                    data, corrected, bad = self._correct(addr, stored)
                ecc_addr = self._ecc_addr(addr)
            elif mode is ProtectionMode.COP_ER:
                # Raw block: chase the pointer and rebuild.  Unlike COP's
                # raw passthrough this path does real decode work after
                # the data arrives — extract the embedded pointer,
                # whole-block (523,512) correction, displaced-bit
                # reassembly — so it keeps charging the decode/decompress
                # pipeline latency on top of the ECC-entry access (billed
                # separately through ``ecc_reads``).  Without bytes, the
                # pointer is the entry the write path recorded.
                if decode:
                    assert self.formatter is not None
                    loaded = self.formatter.load_incompressible(stored)
                    data = loaded.data
                    corrected = loaded.corrected
                    bad = loaded.uncorrectable
                    entry = loaded.entry_index
                else:
                    entry = self.entry_of[addr]
                ecc_addr = self.entry_block_addr(entry)
                latency = self.config.decompress_latency
            # A raw COP block: the decoder's classification already ran
            # inside the normal read pipeline and the stored bytes pass to
            # the cache untouched (docs/architecture.md, "Life of a read")
            # — no decompression happens, so no decompress cycles are
            # charged.  Only compressed blocks pay the +4 cycles.

        self._count_read(corrected, bad, addr, events)
        if ecc_addr is not None:
            stats.ecc_block_reads += 1
        # Without bytes every outcome is fault-free and carries the
        # placeholder, so the mode and these two fields determine it.
        key = None if decode else (compressed, ecc_addr)
        result = self._shared_results.get(key)
        if result is None:
            result = AccessResult(
                data=data,
                compressed=compressed,
                was_uncompressed=codec is not None and not compressed,
                corrected=corrected,
                uncorrectable=bad,
                decompress_cycles=latency,
                ecc_reads=() if ecc_addr is None else (ecc_addr,),
            )
            if key is not None:
                self._shared_results[key] = result
        return result

    def _emit(self, kind: str, addr: Optional[int], events: Optional[list]) -> None:
        if not self.obs.enabled:
            return
        if events is None:
            self.obs.trace.emit(kind, addr=addr, mode=self.mode.value)
        else:
            events.append((kind, {"addr": addr, "mode": self.mode.value}))

    def _count_read(
        self,
        corrected: bool,
        uncorrectable: bool,
        addr: Optional[int] = None,
        events: Optional[list] = None,
    ) -> None:
        if corrected:
            self.stats.corrected_blocks += 1
            self._emit("corrected", addr, events)
        if uncorrectable:
            self.stats.uncorrectable_blocks += 1
            self._emit("uncorrectable", addr, events)

    def publish_metrics(self, registry=None, prefix: str = "controller") -> None:
        """Mirror the controller counters into a metrics registry.

        Publishing is idempotent (counters are set to absolute values), so
        callers may re-publish at any cadence.  Region high-water marks
        land under ``ecc_region.*`` next to the allocation counters the
        :class:`~repro.core.coper.ECCRegion` maintains live.
        """
        registry = registry if registry is not None else self.obs.metrics
        registry.update_counters(prefix, self.stats.as_dict())
        registry.set_gauge(f"{prefix}.resident_blocks", len(self.contents))
        registry.set_gauge(
            f"{prefix}.ever_incompressible", len(self.ever_incompressible)
        )
        registry.set_gauge(f"{prefix}.mode.{self.mode.value}", 1)
        if self.region is not None:
            registry.set_gauge("ecc_region.live_entries", len(self.region))
            registry.set_gauge("ecc_region.peak_entries", self.region.peak_entries)
            registry.set_gauge("ecc_region.live_bytes", self.region.live_bytes)
            registry.set_gauge("ecc_region.peak_bytes", self.region.peak_bytes)

    # -- side-store check bits ---------------------------------------------------

    def _check_bits(self, data: bytes) -> int:
        """Side-store check bits: eight (72,64) bytes for the ECC DIMM, one
        (523,512) word for the ECC-Region / embedded layouts."""
        if self.mode is not ProtectionMode.ECC_DIMM:
            return self._wide_code.check_of(self._wide_code.encode(bytes_to_int(data)))
        parity = 0
        for i in range(0, BLOCK_BYTES, 8):
            word = self._dimm_code.encode(bytes_to_int(data[i : i + 8]))
            parity |= self._dimm_code.check_of(word) << i  # 8 bits per word
        return parity

    def _correct(self, addr: int, stored: bytes) -> tuple[bytes, bool, bool]:
        """``(data, corrected, uncorrectable)`` of a side-store-protected block."""
        parity = self._parity[addr]
        if self.mode is not ProtectionMode.ECC_DIMM:
            result = self._wide_code.decode(
                bytes_to_int(stored) | (parity << self._wide_code.k)
            )
            return (
                int_to_bytes(result.data, BLOCK_BYTES),
                result.status is CodeStatus.CORRECTED,
                result.status is CodeStatus.DETECTED,
            )
        out = bytearray()
        corrected = False
        bad = False
        for i in range(0, BLOCK_BYTES, 8):
            check = (parity >> i) & 0xFF
            word = bytes_to_int(stored[i : i + 8]) | (check << 64)
            result = self._dimm_code.decode(word)
            corrected = corrected or result.status is CodeStatus.CORRECTED
            bad = bad or result.status is CodeStatus.DETECTED
            out += int_to_bytes(result.data, 8)
        return bytes(out), corrected, bad

    # -- fault injection hooks ----------------------------------------------------

    def flip_bit(self, addr: int, bit: int) -> None:
        """Flip one bit of the stored image of a resident block."""
        if addr not in self.contents:
            # Harness hook, not a serviced read: typed error, but no
            # read_misses charge.
            raise BlockNotWrittenError(addr)
        if not 0 <= bit < 8 * BLOCK_BYTES:
            raise ValueError(f"bit index out of range: {bit}")
        image = bytearray(self.contents[addr])
        image[bit // 8] ^= 1 << (bit % 8)
        self.contents[addr] = bytes(image)

    def resident_addresses(self) -> list[int]:
        """All block addresses currently stored."""
        return list(self.contents.keys())
