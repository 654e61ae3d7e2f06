"""Memory subsystem: energy models, banks, partitioned/monolithic memories, DRAM."""

from .bank import MemoryBank
from .energy import BusEnergyModel, DecoderEnergyModel, DRAMEnergyModel, SRAMEnergyModel
from .mainmem import MainMemory
from .partitioned import AccessOutsideMemoryError, MonolithicMemory, PartitionedMemory
from .sleep import BankSleepReport, SleepPolicy, simulate_bank_sleep

__all__ = [
    "SRAMEnergyModel",
    "DRAMEnergyModel",
    "BusEnergyModel",
    "DecoderEnergyModel",
    "MemoryBank",
    "PartitionedMemory",
    "MonolithicMemory",
    "MainMemory",
    "AccessOutsideMemoryError",
    "SleepPolicy",
    "BankSleepReport",
    "simulate_bank_sleep",
]
