"""qqlab: a laboratory for quantum query computations over length-preserving
black-box functions.

The simulator kernels (oracles, state vectors, XOR queries, collapsed query
programs) live in `oracles`, `qsim` and `programs`; the inequality checks,
the adversarial hard-oracle construction and the orbit mass-matrix
experiment live in `analysis`; seeded experiment sweeps, the exact census
and the CLI live in `harness` and `cli`.
"""

__version__ = "0.1.0"

from .analysis import (AdversaryTrace, BoundReport, GapReport, MassMatrix,
                       adversary_bound_report, build_hard_oracle, lemma1_check,
                       lemma2_check, pigeonhole_mutation_check, query_mass_matrix)
from .harness import (CensusReport, ExperimentConfig, ExperimentReport,
                      adversary_success_rate, build_program, exact_census,
                      monte_carlo, wilson_interval)
from .oracles import (BitWord, OracleTable, all_oracles, diff_set, iterate,
                      load_oracle, make_oracle, mutate, oracle_from_text,
                      oracle_to_text, orbit, sample_uniform_oracle, save_oracle)
from .programs import (QueryProgram, Trace, classical_emulation_program,
                       load_program, program_from_json, program_to_json,
                       random_program, run, run_final, save_program,
                       success_probability, truncate_after_query)
from .qsim import (BasisAssignment, LocalUnitary, QubitLayout, StateVector,
                   apply_local_unitary, apply_query, basis_state, cnot_gate,
                   h_gate, haar_unitary, l2_distance, observe, oracle_distance,
                   qubit_cap, query_mass, query_masses, random_gate, state_dump,
                   x_gate)
