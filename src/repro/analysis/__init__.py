"""Analysis utilities: switching-energy validation (Fig. 4) and report formatting."""

from .energy import design_energy, energy_comparison, net_total_capacitances, switching_energy
from .reporting import format_metric, format_table, print_table

__all__ = [
    "net_total_capacitances",
    "switching_energy",
    "design_energy",
    "energy_comparison",
    "format_table",
    "format_metric",
    "print_table",
]
