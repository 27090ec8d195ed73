"""Heterogeneous circuit graph representation.

Following Section III-A of the paper, a schematic netlist becomes a graph with
three node types — **net** (x=0), **device** (x=1) and **pin** (x=2) — and two
structural edge types — **device-to-pin** (e=0) and **net-to-pin** (e=1).
Coupling capacitances are *links* (not edges): **pin-to-net** (e=2),
**pin-to-pin** (e=3) and **net-to-net** (e=4), extracted from the post-layout
netlist and used only as prediction targets.

The graph is stored with flat numpy arrays plus a CSR adjacency for fast
h-hop neighbourhood queries during enclosing-subgraph sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csr import CSRGraph

__all__ = [
    "NODE_NET",
    "NODE_DEVICE",
    "NODE_PIN",
    "EDGE_DEVICE_PIN",
    "EDGE_NET_PIN",
    "LINK_PIN_NET",
    "LINK_PIN_PIN",
    "LINK_NET_NET",
    "NODE_TYPE_NAMES",
    "EDGE_TYPE_NAMES",
    "LINK_TYPE_NAMES",
    "Link",
    "CircuitGraph",
]

NODE_NET = 0
NODE_DEVICE = 1
NODE_PIN = 2

EDGE_DEVICE_PIN = 0
EDGE_NET_PIN = 1
LINK_PIN_NET = 2
LINK_PIN_PIN = 3
LINK_NET_NET = 4

NODE_TYPE_NAMES = {NODE_NET: "net", NODE_DEVICE: "device", NODE_PIN: "pin"}
EDGE_TYPE_NAMES = {EDGE_DEVICE_PIN: "device-pin", EDGE_NET_PIN: "net-pin"}
LINK_TYPE_NAMES = {LINK_PIN_NET: "pin-net", LINK_PIN_PIN: "pin-pin", LINK_NET_NET: "net-net"}

NUM_NODE_TYPES = 3
NUM_EDGE_TYPES = 5  # structural edge types plus link types share one embedding table


@dataclass(frozen=True)
class Link:
    """A target link: a (potential) coupling between two graph nodes."""

    source: int
    target: int
    link_type: int
    label: float = 1.0          # 1.0 = coupling exists, 0.0 = injected negative
    capacitance: float = 0.0    # coupling capacitance in farads (0 for negatives)

    def key(self) -> tuple[int, int]:
        """Canonical (low, high) endpoint tuple for dedup/set membership."""
        return (self.source, self.target) if self.source <= self.target else (self.target, self.source)


@dataclass
class CircuitGraph:
    """A heterogeneous circuit graph with CSR adjacency.

    Attributes
    ----------
    name:
        Design name.
    node_types:
        ``(N,)`` int array of node types (0 net, 1 device, 2 pin).
    node_names:
        Human-readable node names (net name, device name, ``device:terminal``).
    edge_index:
        ``(2, E)`` int array of *undirected* structural edges (each stored once).
    edge_types:
        ``(E,)`` int array of edge types (0 device-pin, 1 net-pin).
    node_stats:
        ``(N, d_C)`` circuit-statistics matrix ``X_C`` of Table I.
    links:
        Ground-truth coupling links (positives only; negatives are injected by
        the sampler).
    """

    name: str
    node_types: np.ndarray
    node_names: list[str]
    edge_index: np.ndarray
    edge_types: np.ndarray
    node_stats: np.ndarray | None = None
    links: list[Link] = field(default_factory=list)
    node_ground_caps: np.ndarray | None = None

    # Caches (built lazily; netlist_to_graph hands over its name index and
    # device rows, and patch_graph shares them between revisions).
    _csr: CSRGraph | None = None
    _name_to_index: dict | None = None
    _device_rows: np.ndarray | None = None

    def __getstate__(self) -> dict:
        """Pickle without the derived caches (CSR adjacency, name index,
        device rows).

        All are deterministic functions of the defining arrays and rebuild
        lazily on first use, so worker processes receiving a pickled graph
        get a smaller payload and identical behaviour.
        """
        state = dict(self.__dict__)
        state["_csr"] = None
        state["_name_to_index"] = None
        state["_device_rows"] = None
        return state

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return int(self.node_types.shape[0])

    @property
    def num_edges(self) -> int:
        """Number of (undirected) structural edges."""
        return int(self.edge_index.shape[1])

    @property
    def num_links(self) -> int:
        """Number of ground-truth coupling links."""
        return len(self.links)

    def node_index(self, name: str) -> int:
        """Index of the node called ``name`` (KeyError if absent)."""
        if self._name_to_index is None:
            self._name_to_index = {n: i for i, n in enumerate(self.node_names)}
        return self._name_to_index[name]

    def has_node(self, name: str) -> bool:
        """Whether a node called ``name`` exists."""
        if self._name_to_index is None:
            self._name_to_index = {n: i for i, n in enumerate(self.node_names)}
        return name in self._name_to_index

    @property
    def device_rows(self) -> np.ndarray:
        """The row of each device node, ascending: device ``i`` of the
        circuit the graph was built from sits at row ``device_rows[i]``."""
        if self._device_rows is None:
            self._device_rows = np.flatnonzero(self.node_types == NODE_DEVICE)
        return self._device_rows

    def nodes_of_type(self, node_type: int) -> np.ndarray:
        """Indices of all nodes of the given type code."""
        return np.nonzero(self.node_types == node_type)[0]

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        n = self.num_nodes
        if len(self.node_names) != n:
            raise ValueError("node_names length does not match node_types")
        if self.edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, E)")
        if self.edge_index.size and (self.edge_index.min() < 0 or self.edge_index.max() >= n):
            raise ValueError("edge_index refers to nonexistent nodes")
        if self.edge_types.shape[0] != self.edge_index.shape[1]:
            raise ValueError("edge_types length does not match edge_index")
        if self.node_stats is not None and self.node_stats.shape[0] != n:
            raise ValueError("node_stats rows do not match number of nodes")
        for link in self.links:
            if not (0 <= link.source < n and 0 <= link.target < n):
                raise ValueError(f"link {link} refers to nonexistent nodes")
        # Heterogeneity constraints: structural edges only connect device-pin or net-pin.
        if self.num_edges:
            src_types = self.node_types[self.edge_index[0]]
            dst_types = self.node_types[self.edge_index[1]]
            for edge_type, (a, b) in ((EDGE_DEVICE_PIN, (NODE_DEVICE, NODE_PIN)),
                                      (EDGE_NET_PIN, (NODE_NET, NODE_PIN))):
                mask = self.edge_types == edge_type
                pairs = set(zip(src_types[mask].tolist(), dst_types[mask].tolist()))
                allowed = {(a, b), (b, a)}
                if not pairs <= allowed:
                    raise ValueError(
                        f"edge type {EDGE_TYPE_NAMES[edge_type]} connects invalid node types {pairs - allowed}"
                    )

    # ------------------------------------------------------------------ #
    # Adjacency (CSR kernel, built once per graph)
    # ------------------------------------------------------------------ #
    @property
    def csr(self) -> CSRGraph:
        """The symmetric CSR adjacency kernel (built lazily, cached)."""
        if self._csr is None:
            self._csr = CSRGraph.from_edges(self.num_nodes, self.edge_index, self.edge_types)
        return self._csr

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array of the adjacency."""
        return self.csr.indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array of the adjacency."""
        return self.csr.indices

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbouring node indices of ``node`` (structural edges only)."""
        return self.csr.neighbors(node)

    def degree(self, node: int | None = None) -> np.ndarray | int:
        """Degree of one node, or the full degree array when ``node`` is None."""
        degrees = self.csr.degrees()
        if node is None:
            return degrees
        return int(degrees[node])

    def k_hop_nodes(self, seeds, hops: int) -> np.ndarray:
        """All nodes within ``hops`` of any seed (including the seeds)."""
        return self.csr.k_hop(seeds, hops)

    def shortest_path_lengths(self, source: int, max_distance: int | None = None) -> dict[int, int]:
        """BFS shortest-path lengths from ``source`` (optionally bounded)."""
        unreachable = -1
        distances = self.csr.bfs_distances(int(source), unreachable=unreachable,
                                           max_distance=max_distance)
        reached = np.flatnonzero(distances != unreachable)
        return {int(node): int(distances[node]) for node in reached}

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """Counts used by Table IV."""
        link_counts: dict[str, int] = {}
        for link in self.links:
            key = LINK_TYPE_NAMES[link.link_type]
            link_counts[key] = link_counts.get(key, 0) + 1
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "num_links": self.num_links,
            "num_nets": int((self.node_types == NODE_NET).sum()),
            "num_devices": int((self.node_types == NODE_DEVICE).sum()),
            "num_pins": int((self.node_types == NODE_PIN).sum()),
            "links_by_type": link_counts,
        }

    def __repr__(self) -> str:
        return (
            f"CircuitGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, links={self.num_links})"
        )
