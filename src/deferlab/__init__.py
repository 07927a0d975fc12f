"""deferlab: a desk-scale laboratory for learning-to-defer systems.

Trains a classifier jointly with an expert-agnostic rejector, models expert
behaviour with Beta-Binomial posteriors over per-class accuracy, evaluates
under variable deferral budgets, and verifies the model's concentration
guarantees by Monte Carlo.
"""

__version__ = "0.1.0"

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, parse_config
from .deferral import rejector_inputs, train, train_pop_avg
from .errors import DatasetParseError, TrainingDivergenceError, UnsupportedTaskError
from .evaluation import (
    Curve,
    ScoredCases,
    area_under,
    build_curves,
    case_priorities,
    score_cases,
)
from .experts import (
    PriorElicitation,
    build_representation,
    prior_arrays,
    sample_complexity_bound,
)
from .harness import run_experiment, run_priors_study, run_theory_checks
from .nets import (
    DenseNet,
    TrainConfig,
    backward,
    dense_net,
    forward,
    forward_cached,
    sgd_step,
    softmax,
)
from .simulate import (
    ContextSet,
    Dataset,
    SimulatedExpertSpec,
    SyntheticTaskSpec,
    draw_context_set,
    generate_gaussian_task,
    load_csv_dataset,
    make_population,
)
from .theory import (
    bayes_optimal_reference,
    median_posterior_errors,
    misidentification_rate,
)
