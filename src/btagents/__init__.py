"""Multi-agent BTC/cash trading backtester with verbal feedback loops."""

from .agents import (
    ChatClient,
    ChatClientConfig,
    MarketState,
    PromptBundle,
    Role,
    ScriptedResponder,
)
from .indicators import IndicatorParams, IndicatorSnapshot
from .journal import RunJournal, read_journal, write_journal
from .market_data import (
    Bar,
    MarketDataset,
    NewsItem,
    OnChainDaily,
    SentimentDaily,
    align,
    load_bars,
    load_news,
    load_onchain,
    load_sentiment,
    slice_window,
)
from .orchestrator import RunConfig, RunOutputs, outputs_from_journal, replay, run_backtest
from .portfolio import Allocation, FeeModel, PortfolioState, mark, rebalance
from .regime import RegimeParams, RegimeSegmentation, segment

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "Bar",
    "ChatClient",
    "ChatClientConfig",
    "FeeModel",
    "IndicatorParams",
    "IndicatorSnapshot",
    "MarketDataset",
    "MarketState",
    "NewsItem",
    "OnChainDaily",
    "PortfolioState",
    "PromptBundle",
    "RegimeParams",
    "RegimeSegmentation",
    "Role",
    "RunConfig",
    "RunJournal",
    "RunOutputs",
    "ScriptedResponder",
    "SentimentDaily",
    "align",
    "load_bars",
    "load_news",
    "load_onchain",
    "load_sentiment",
    "mark",
    "outputs_from_journal",
    "read_journal",
    "rebalance",
    "replay",
    "run_backtest",
    "segment",
    "slice_window",
    "write_journal",
]
