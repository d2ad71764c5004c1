"""divsel: diversity-driven selection and evaluation of model ensembles.

Works entirely from recorded predictions: load a pool of base-model
outputs (labels, optionally class probabilities) plus ground truth,
enumerate candidate teams, score their diversity on negative samples,
select high-diversity teams, combine member predictions with a consensus
method, and report aggregate quality statistics.
"""

from .consensus import (ABSTAIN, ConsensusMethod, EnsemblePrediction, boosting_weights,
                        ensemble_accuracy, predict)
from .diversity import (MetricId, agreement_counts, binary_disagreement, cohens_kappa,
                        diversity_score, fleiss_kappa, generalized_diversity,
                        kw_variance, pairwise_average, q_statistics)
from .errors import (CapabilityError, DivselError, EmptyNegativesError, PoolError,
                     RuleCoverageError, SynthConfigError, TeamLimitError)
from .evaluation import SetReport, TeamEvaluation, evaluate_set, evaluate_teams
from .pool import (CorrectnessMatrix, ModelRecord, PredictionPool, build_pool,
                   correctness, load_pool, write_pool)
from .sampling import (build_negative_set, derive_seed, focal_negative_sets,
                       negatives_all, negatives_any, negatives_focal, sample_subset)
from .selection import (FocalScoreTable, SelectedSet, SelectionRule, eq_fuse,
                        fq_select, learn_fq_rules, load_rules, q_select, save_rules,
                        two_means_split)
from .synth import SynthConfig, generate_pool
from .teaming import CandidateSet, EnsembleTeam, enumerate_teams, parse_team, team

__version__ = "0.1.0"
