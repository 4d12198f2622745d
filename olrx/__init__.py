import importlib.util
import sys

# Ray Data's path resolution imports fsspec's HTTP filesystem on every read
# and catches only ModuleNotFoundError. That module needs aiohttp; without
# it, a thread can see another thread's half-imported module and get an
# ImportError. A None entry makes every such import raise
# ModuleNotFoundError at once, which Ray reads as "no HTTP filesystem", as
# it does single-threaded. Checked by lookup, so no process pays for
# importing fsspec here.
if importlib.util.find_spec("aiohttp") is None:
    sys.modules.setdefault("fsspec.implementations.http", None)
