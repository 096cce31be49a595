(** Prio: private, robust, and scalable computation of aggregate statistics.

    This is the top-level facade over the whole system. The one-call API:

    {[
      module P = Prio.Make (Prio.F87)
      let rng = Prio.Rng.of_string_seed "demo"
      let afe = P.Afe_sum.sum ~bits:8
      let d = P.deploy ~rng ~num_servers:5 afe
      let total, stats = P.collect d [3; 1; 4; 1; 5]
    ]}

    runs the full pipeline of the paper: each client AFE-encodes its value,
    splits it into PRG-compressed additive shares, attaches a SNIP proving
    the encoding well-formed, and seals one packet per server; the servers
    verify every submission with four field elements of gossip, accumulate
    the valid ones, and publish accumulators whose sum decodes to the
    aggregate — revealing nothing else about any client's value as long as
    one server is honest. *)

(* Re-exports: the building blocks, importable from this one library. *)
module Bigint = Prio_bigint.Bigint
module Rng = Prio_crypto.Rng
module Chacha20 = Prio_crypto.Chacha20
module Sha256 = Prio_crypto.Sha256
module Hmac = Prio_crypto.Hmac
module Authbox = Prio_crypto.Authbox

module Field_intf = Prio_field.Field_intf
module Babybear = Prio_field.Babybear
module F87 = Prio_field.F87
module F265 = Prio_field.F265

module Obs_clock = Prio_obs.Clock
module Obs_metrics = Prio_obs.Metrics
module Obs_trace = Prio_obs.Trace
module Obs_report = Prio_obs.Report
module Obs_json = Prio_obs.Json

module Dp = Prio_proto.Dp
module Registry = Prio_proto.Registry
module Retry = Prio_proto.Retry
module Faults = Prio_proto.Faults
module Transport = Prio_proto.Net
module Snapshot = Prio_proto.Checkpoint
module Schnorr = Prio_nizk.Schnorr
module Nizk_group = Prio_nizk.Group
module Nizk_pedersen = Prio_nizk.Pedersen
module Nizk_bitproof = Prio_nizk.Bitproof
module Snark_estimate = Prio_nizk.Snark_estimate
module Nizk_pipeline = Prio_proto.Pipeline.Nizk_pipeline

module Make (F : Field_intf.S) = struct
  module Field = F
  module Poly = Prio_poly.Poly.Make (F)
  module Ntt = Prio_poly.Ntt.Make (F)
  module Circuit = Prio_circuit.Circuit.Make (F)
  module Circuit_analysis = Prio_circuit.Analysis.Make (F)
  module Circuit_opt = Prio_circuit.Opt.Make (F)
  module Share = Prio_share.Share.Make (F)
  module Dpf = Prio_share.Dpf.Make (F)
  module Snip = Prio_snip.Snip.Make (F)
  module Snip_reference = Prio_snip.Reference.Make (F)
  module Mpc = Prio_snip.Mpc.Make (F)
  module Afe = Prio_afe.Afe.Make (F)
  module Afe_sum = Prio_afe.Sum.Make (F)
  module Afe_stats = Prio_afe.Stats.Make (F)
  module Afe_boolean = Prio_afe.Boolean.Make (F)
  module Afe_minmax = Prio_afe.Minmax.Make (F)
  module Afe_histogram = Prio_afe.Histogram.Make (F)
  module Afe_popular = Prio_afe.Popular.Make (F)
  module Afe_countmin = Prio_afe.Countmin.Make (F)
  module Afe_regression = Prio_afe.Regression.Make (F)
  module Afe_product = Prio_afe.Product.Make (F)
  module Afe_fixed_point = Prio_afe.Fixed_point.Make (F)
  module Afe_zoo = Prio_afe.Zoo.Make (F)
  module Wire = Prio_proto.Wire.Make (F)
  module Client = Prio_proto.Client.Make (F)
  module Server = Prio_proto.Server.Make (F)
  module Cluster = Prio_proto.Cluster.Make (F)
  module Checkpoint = Prio_proto.Checkpoint.Make (F)
  module Pipeline = Prio_proto.Pipeline.Make (F)
  module Threshold = Prio_proto.Threshold.Make (F)
  module Net = Prio_proto.Net.Make (F)

  type ('input, 'output) deployment = {
    afe : ('input, 'output) Afe.t;
    cluster : Cluster.t;
    rng : Rng.t;
    mutable next_client_id : int;
  }

  (** Stand up a deployment for an AFE. [mode] defaults to full Prio
      (SNIP-verified); [num_servers] to the paper's five. *)
  let deploy ?(mode = Cluster.Robust_snip) ?(num_servers = 5) ~rng afe =
    if not (Afe.well_formed afe) then invalid_arg "Prio.deploy: malformed AFE";
    let master = Rng.bytes rng 32 in
    let cluster =
      Cluster.create ~rng ~mode ~circuit:afe.Afe.circuit
        ~trunc_len:afe.Afe.trunc_len ~num_servers ~master ()
    in
    { afe; cluster; rng; next_client_id = 0 }

  (** Submit one client's private value; returns whether the servers
      accepted it. *)
  let submit d (value : 'input) : bool =
    let client_id = d.next_client_id in
    d.next_client_id <- d.next_client_id + 1;
    let encoding = d.afe.Afe.encode ~rng:d.rng value in
    let pk =
      Client.submit ~rng:d.rng
        ~mode:(Cluster.client_mode d.cluster)
        ~num_servers:d.cluster.Cluster.s ~client_id
        ~master:d.cluster.Cluster.master encoding
    in
    Cluster.submit d.cluster ~client_id pk

  type stats = {
    accepted : int;
    rejected : int;
    server_bytes : int;  (** total server-to-server traffic *)
  }

  (** Publish and decode the aggregate. [dp_alpha] adds distributed
      differential-privacy noise before publication (§7). *)
  let publish ?dp_alpha d : 'output * stats =
    let sigma = Cluster.publish ?dp_alpha d.cluster in
    let accepted = d.cluster.Cluster.accepted in
    ( d.afe.Afe.decode ~n:accepted sigma,
      {
        accepted;
        rejected = d.cluster.Cluster.rejected;
        server_bytes = Cluster.total_server_bytes d.cluster;
      } )

  (** One-call collection: submit every value, publish, decode. *)
  let collect ?dp_alpha d (values : 'input list) : 'output * stats =
    List.iter (fun v -> ignore (submit d v)) values;
    publish ?dp_alpha d
end
