"""Average-reward MDP auctions: offline VCG mechanism and its online learner."""

from .bidders import checked_spec, reports, windows_from_episodes
from .harness import (ExperimentConfig, OnlineRunResult, RegretReport, RunState,
                      advance, compute_benchmark, config_hash, export,
                      run_clairvoyant, run_offline, run_online, simulate_run,
                      truthfulness_gain)
from .mdp import (GeneratorSpec, MdpModel, SimState, generate_model, load_model,
                  play, save_model, validate_model)
from .occupancy import (OccupancyMeasure, induce, kernel_shift_bound,
                        mixing_contraction, occupancy_from, payoff,
                        stationary_distribution, state_kernel)
from .offline import (BidProfile, Mechanism, average_utilities,
                      offline_mechanism, seller_utility_identity)
from .online import (ConfigurationError, LearnerConfig, OnlineVcgLearner,
                     episode_lengths, episode_schedule)
from .polytope import (ConstraintSystem, LpSolution, PolytopeSpec,
                       build_constraints, calibrate_delta, maximize,
                       maximize_each, tighten_band)
from .tolerances import TOL

__version__ = "0.1.0"
