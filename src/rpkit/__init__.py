"""rpkit: reflection positivity as a checkable numerical property.

Subpackages build finite parafermion algebras and lattice Gaussian fields,
assemble RP Gram forms, quantize them to Hilbert spaces with positive
Hamiltonians, and verify the Green-operator monotonicity, SFT positivity,
and pictorial reflection identities at desk scale.
"""

__version__ = "0.1.0"

from .algebra import (AlgebraConfig, Algebra, AlgebraElement, StateFunctional,
                      build_algebra, clock_shift, evaluate, theta, twisted_product)
from .verifier import (CouplingDecomposition, GramReport, coupling_decomposition,
                       coupling_element, form_matrix, gram, leading_report, plus_basis,
                       sft_positivity, sft_positivity_sequence)
from .reconstruction import (QuotientSpace, SpectrumReport, TransferData, quantize,
                             shift_family, spectrum_report, time_shift, transfer_operator)
from .lattice import (GreenSet, LatticeModel, covariance_rp, green_set,
                      lattice_operator, monotonicity_verdict, stochastic_covariance,
                      stochastic_rp_scan)
from .boxes import (Box22, adjoint, dft_zd, cyclic_convolve, group_box,
                    identity_box, rot_pi, sft, sft_inv, star_product)

__all__ = [
    "AlgebraConfig", "Algebra", "AlgebraElement", "StateFunctional", "build_algebra",
    "clock_shift", "evaluate", "theta", "twisted_product",
    "CouplingDecomposition", "GramReport", "coupling_decomposition", "coupling_element",
    "form_matrix", "gram", "leading_report", "plus_basis", "sft_positivity",
    "sft_positivity_sequence",
    "QuotientSpace", "SpectrumReport", "TransferData", "quantize", "shift_family",
    "spectrum_report", "time_shift", "transfer_operator",
    "GreenSet", "LatticeModel", "covariance_rp", "green_set", "lattice_operator",
    "monotonicity_verdict", "stochastic_covariance", "stochastic_rp_scan",
    "Box22", "adjoint", "dft_zd", "cyclic_convolve", "group_box", "identity_box",
    "rot_pi", "sft", "sft_inv", "star_product",
]
