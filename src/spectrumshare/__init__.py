"""Tax-based game form for decentralized power allocation over shared spectrum.

Strategic users split quantized power budgets across frequency bands.  Each
submits a (proposal, price) message; the outcome rule picks the catalog
profile nearest the average proposal and charges cyclic taxes that balance
to zero exactly, on and off equilibrium.  The package enumerates the profile
catalog, applies the game form in exact rational arithmetic, finds every
Nash equilibrium allocation from per-user price intervals, certifies each
exactly over the whole message space, bridges equilibria and Lindahl
allocations with personalized prices in both directions, and simulates the
pilot-based gain measurement with its exclusion rule.
"""

from .equilibrium import (
    CensusEntry,
    Deviation,
    EquilibriumReport,
    LindahlAllocation,
    LindahlCensus,
    balanced_prices,
    best_response,
    build_report,
    lindahl_census,
    lindahl_to_ne,
    price_intervals,
)
from .errors import ConfigError, ContractError
from .measurement import (
    AgentBehavior,
    GainReport,
    Honest,
    MeasurementResult,
    PilotCheat,
    ReportCheat,
    run_measurement,
)
from .mechanism import (
    Message,
    MessageProfile,
    Outcome,
    message_prices,
    nearest_integer,
    outcome,
    tax_terms,
)
from .model import (
    CubicTaxUtility,
    ProfileCatalog,
    ScenarioConfig,
    SirLogUtility,
    TableUtility,
    UtilitySpec,
    as_fraction,
    enumerate_bundles,
    integer_scaling,
)
from .scenario import Scenario, load_scenario, parse_scenario, scenario_to_jsonable, write_scenario

__version__ = "0.1.0"
