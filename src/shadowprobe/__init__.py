"""shadowprobe: training-set property inference against ML classifiers.

Train shadow classifiers on data with and without a hidden statistical
property, encode each trained model's internals as feature vectors, and
fit a decision-tree meta-classifier that tells whether an unseen
classifier's training set carried the property.
"""

from .core import (
    CATEGORICAL,
    NOT_P,
    NUMERIC,
    P,
    ContractError,
    Dataset,
    DomainError,
    FormatError,
    InfeasiblePathError,
    RandomSource,
    ShadowprobeError,
    StructuralError,
    load_dataset,
    make_dataset,
    numeric_matrix,
    save_dataset,
)
from .dtree import (
    CategoricalSplit,
    DecisionTree,
    NumericSplit,
    TreeParams,
    classify,
    entropy,
    info_gain,
    train_tree,
)
from .svm import KernelSpec, SvmModel, kkt_audit, smo_train, svm_decision
from .hmm import (
    AcousticModel,
    GaussianHmm,
    forward_loglik,
    train_acoustic_model,
    viterbi,
    viterbi_train,
)
from .kmeans import KMeansModel, kmeans_train, sulq_kmeans_train
from .mlp import Mlp, backprop_train, forward, gradients, init_mlp
from .metrics import k_fold_cross_validate, scores
from .attack import (
    FeatureVectorSet,
    MetaClassifier,
    build_meta_training_set,
    extract_features,
    infer_property,
    kl_filter,
    kl_gaussian,
    run_dp_bypass,
    train_meta,
)
from .datagen import (
    FlowSpec,
    SpeechSpec,
    default_flow_spec,
    default_speech_spec,
    gen_flow_dataset,
    gen_speech_corpus,
)
from .serialize import load_model, save_model
from .pipeline import PipelineConfig, run_pipeline

__version__ = "0.1.0"
