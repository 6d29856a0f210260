"""tabtune: grid and random hyper-parameter search over from-scratch
tabular classifiers, with shuffled k-fold cross-validation and report
rendering."""

__version__ = "0.1.0"

from .tabular import (  # noqa: F401
    Table,
    SplitPair,
    filter_rows,
    generate_synthetic,
    load_csv,
    split_train_test,
    write_csv,
)
from .preprocess import (  # noqa: F401
    DesignMatrix,
    PreprocessPlan,
    apply_plan,
    fit_plan,
)
from .hpspace import (  # noqa: F401
    ParamSpec,
    SearchSpace,
    grid_enumerate,
    grid_size,
    random_sample,
)
from .tuner import cross_val_trial, grs_auto_hp, shuffle_kfold  # noqa: F401
from .report import render_chart, render_table, strip_volatile  # noqa: F401
