"""Virtual SD card.

A block device backed by an in-memory image, spoken to by the SDHCI host
controller model over a simplified SD command interface (the subset Linux's
mmc stack and our synthetic rootfs mount use).
"""

from __future__ import annotations

BLOCK_SIZE = 512

# SD commands the card understands.
CMD_GO_IDLE = 0           # CMD0
CMD_ALL_SEND_CID = 2      # CMD2
CMD_SEND_RELATIVE_ADDR = 3  # CMD3
CMD_SELECT_CARD = 7       # CMD7
CMD_SEND_IF_COND = 8      # CMD8
CMD_SEND_CSD = 9          # CMD9
CMD_READ_SINGLE = 17      # CMD17
CMD_WRITE_SINGLE = 24     # CMD24
ACMD_SD_SEND_OP_COND = 41  # ACMD41
CMD_APP = 55              # CMD55

OCR_READY = 0x8000_0000
OCR_CCS = 0x4000_0000     # high-capacity (block addressing)


class SdCardError(Exception):
    pass


class SdCard:
    """An SDHC card with a bytearray-backed image."""

    def __init__(self, capacity_blocks: int = 4096, rca: int = 0x1234):
        if capacity_blocks <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_blocks = capacity_blocks
        self.image = bytearray(capacity_blocks * BLOCK_SIZE)
        self.rca = rca
        self.state = "idle"          # idle -> ready -> ident -> standby -> transfer
        self.app_cmd = False
        self.num_reads = 0
        self.num_writes = 0

    # -- host-side image access -----------------------------------------------
    def load_image(self, data: bytes, offset: int = 0) -> None:
        if offset + len(data) > len(self.image):
            raise ValueError("image data exceeds card capacity")
        self.image[offset:offset + len(data)] = data

    def read_block(self, lba: int) -> bytes:
        self._check_lba(lba)
        self.num_reads += 1
        return bytes(self.image[lba * BLOCK_SIZE:(lba + 1) * BLOCK_SIZE])

    def write_block(self, lba: int, data: bytes) -> None:
        self._check_lba(lba)
        if len(data) != BLOCK_SIZE:
            raise SdCardError(f"block write needs {BLOCK_SIZE} bytes, got {len(data)}")
        self.num_writes += 1
        self.image[lba * BLOCK_SIZE:(lba + 1) * BLOCK_SIZE] = data

    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self.capacity_blocks:
            raise SdCardError(f"LBA {lba} out of range (card has {self.capacity_blocks} blocks)")

    # -- snapshot support -------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable card state; the image is stored sparsely (non-zero
        blocks only, keyed by LBA) since cards are mostly blank."""
        blocks = {}
        zero = bytes(BLOCK_SIZE)
        for lba in range(self.capacity_blocks):
            raw = bytes(self.image[lba * BLOCK_SIZE:(lba + 1) * BLOCK_SIZE])
            if raw != zero:
                blocks[str(lba)] = raw.hex()
        return {
            "capacity_blocks": self.capacity_blocks,
            "rca": self.rca,
            "state": self.state,
            "app_cmd": self.app_cmd,
            "num_reads": self.num_reads,
            "num_writes": self.num_writes,
            "blocks": blocks,
        }

    def restore_state(self, state: dict) -> None:
        """Restore into a freshly built card (snapshot restore builds a new
        platform): the all-zero image ``__init__`` allocated takes the
        snapshot's non-zero blocks in place."""
        if state["capacity_blocks"] != self.capacity_blocks:
            self.capacity_blocks = state["capacity_blocks"]
            self.image = bytearray(self.capacity_blocks * BLOCK_SIZE)
        self.rca = state["rca"]
        self.state = state["state"]
        self.app_cmd = bool(state["app_cmd"])
        self.num_reads = state["num_reads"]
        self.num_writes = state["num_writes"]
        for lba_str, raw in state["blocks"].items():
            lba = int(lba_str)
            self.image[lba * BLOCK_SIZE:(lba + 1) * BLOCK_SIZE] = bytes.fromhex(raw)

    # -- command interface (used by the SDHCI model) ------------------------------
    def execute(self, command: int, argument: int) -> int:
        """Process one SD command; returns the 32-bit R1/R3/R6-style response."""
        was_app = self.app_cmd
        self.app_cmd = False
        if command == CMD_GO_IDLE:
            self.state = "idle"
            return 0
        if command == CMD_SEND_IF_COND:
            # Echo back the check pattern + voltage accepted.
            return argument & 0xFFF
        if command == CMD_APP:
            self.app_cmd = True
            return 0x120
        if command == ACMD_SD_SEND_OP_COND and was_app:
            self.state = "ready"
            return OCR_READY | OCR_CCS
        if command == CMD_ALL_SEND_CID:
            self.state = "ident"
            return 0x00AA55FF          # truncated CID
        if command == CMD_SEND_RELATIVE_ADDR:
            self.state = "standby"
            return (self.rca << 16) | 0x0500
        if command == CMD_SELECT_CARD:
            if (argument >> 16) != self.rca:
                raise SdCardError(f"select with wrong RCA 0x{argument >> 16:x}")
            self.state = "transfer"
            return 0x700
        if command == CMD_SEND_CSD:
            return self.capacity_blocks & 0xFFFFFFFF
        if command in (CMD_READ_SINGLE, CMD_WRITE_SINGLE):
            if self.state != "transfer":
                raise SdCardError(f"data command in state {self.state!r}")
            self._check_lba(argument)
            return 0x900
        raise SdCardError(f"unsupported SD command CMD{command}")
