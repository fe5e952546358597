(* Typed metrics registry: counters, gauges and quantile histograms.

   Instruments register a metric once (usually at module-init time) and
   bump it from hot code; [incr]/[set]/[observe] are no-ops while the
   registry is disabled, so the cost of a disabled instrument is one
   load and branch.  Registration is idempotent per (name, kind) —
   asking for the same counter twice returns the same instance — and a
   name collision across kinds is a programming error and raises.

   Histograms keep, besides count/sum/min/max, a fixed array of
   log-scale bucket counters (quarter-powers of two from 2^-40 to
   2^40, one underflow and one overflow bucket).  Because the bucket
   boundaries are fixed and counting commutes, the quantile estimate is
   fully deterministic: it depends only on the multiset of observed
   values, never on observation order, domain scheduling or sampling.
   A quantile answer is the upper boundary of the bucket holding the
   requested rank, clamped into [min, max], so its relative error is
   bounded by the bucket ratio 2^(1/4) ≈ 19%.

   Empty-histogram semantics (defined, tested, and relied on by the
   serve replay determinism contract): with zero observations every
   derived statistic — sum, min, max, mean and every quantile — is 0.
   Neither the text dump nor the JSON export ever contains infinity or
   NaN.

   Domain safety: counters are atomics (the hot path stays lock-free —
   one fetch-and-add per bump); gauges, histograms and the registry
   table share one mutex, which is fine because lookups after module
   init are rare (per-configuration sim counters) and observations are
   per-span or per-request, not per-access.  Increments from concurrent
   domains commute, so totals are independent of scheduling and
   parallel runs report the same counts as serial ones.

   [dump] renders a deterministic text report (names sorted), written by
   the CLI behind [--metrics-out]; [to_json] renders the same registry
   as an `impact.metrics/v1` document. *)

type counter = { c_name : string; c_help : string; count : int Atomic.t }
type gauge = { g_name : string; g_help : string; mutable value : float }

(* ---- log-scale bucket geometry (shared by every histogram) ---- *)

(* Boundaries 2^(k/4) for k in [-160, 160]: 321 boundaries covering
   ~9.1e-13 .. ~1.1e12, plus one overflow bucket.  Bucket i holds
   values v with bounds.(i-1) < v <= bounds.(i); bucket 0 also absorbs
   everything at or below the lowest boundary. *)
let bucket_subdiv = 4
let bucket_lg_min = -40
let bucket_lg_max = 40

let bounds =
  Array.init
    (((bucket_lg_max - bucket_lg_min) * bucket_subdiv) + 1)
    (fun i ->
      Float.pow 2.
        (float_of_int ((bucket_lg_min * bucket_subdiv) + i)
        /. float_of_int bucket_subdiv))

let nbounds = Array.length bounds
let nbuckets = nbounds + 1 (* + overflow *)

(* Smallest i with v <= bounds.(i); [nbounds] (overflow) if none.
   Binary search keeps the answer exact at the boundaries — no floating
   log round-off — so the same value always lands in the same bucket. *)
let bucket_index v =
  if v <= bounds.(0) then 0
  else if v > bounds.(nbounds - 1) then nbounds
  else begin
    let lo = ref 0 and hi = ref (nbounds - 1) in
    (* invariant: bounds.(lo) < v <= bounds.(hi) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid
    done;
    !hi
  end

type histogram = {
  h_name : string;
  h_help : string;
  mutable n : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  buckets : int array;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let mutex = Mutex.create ()
let on = Atomic.make false

let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register name make_new match_existing =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | None ->
    let m = make_new () in
    Hashtbl.add registry name m;
    m
  | Some m -> (
    match match_existing m with
    | Some _ -> m
    | None ->
      invalid_arg
        (Printf.sprintf
           "Obs.Metrics: %S is already registered as a %s" name
           (kind_name m)))

let counter ?(help = "") name =
  match
    register name
      (fun () -> C { c_name = name; c_help = help; count = Atomic.make 0 })
      (function C _ as m -> Some m | _ -> None)
  with
  | C c -> c
  | _ -> assert false

let gauge ?(help = "") name =
  match
    register name
      (fun () -> G { g_name = name; g_help = help; value = 0. })
      (function G _ as m -> Some m | _ -> None)
  with
  | G g -> g
  | _ -> assert false

let histogram ?(help = "") name =
  match
    register name
      (fun () ->
        H
          {
            h_name = name;
            h_help = help;
            n = 0;
            sum = 0.;
            vmin = infinity;
            vmax = neg_infinity;
            buckets = Array.make nbuckets 0;
          })
      (function H _ as m -> Some m | _ -> None)
  with
  | H h -> h
  | _ -> assert false

let incr ?(by = 1) c =
  if Atomic.get on then ignore (Atomic.fetch_and_add c.count by)

let value c = Atomic.get c.count

let set g v = if Atomic.get on then locked (fun () -> g.value <- v)
let gauge_value g = g.value

let observe h v =
  if Atomic.get on then
    locked @@ fun () ->
    h.n <- h.n + 1;
    h.sum <- h.sum +. v;
    if v < h.vmin then h.vmin <- v;
    if v > h.vmax then h.vmax <- v;
    let i = if Float.is_finite v then bucket_index v else nbuckets - 1 in
    h.buckets.(i) <- h.buckets.(i) + 1

let hist_count h = h.n
let hist_sum h = if h.n = 0 then 0. else h.sum
let hist_min h = if h.n = 0 then 0. else h.vmin
let hist_max h = if h.n = 0 then 0. else h.vmax
let hist_mean h = if h.n = 0 then 0. else h.sum /. float_of_int h.n

(* Deterministic rank-based estimate: the value at rank ceil(p * n)
   (1-based) is inside the first bucket whose cumulative count reaches
   the rank; answer that bucket's upper boundary clamped into
   [min, max].  No interpolation, no sampling — the answer is a pure
   function of the observed multiset. *)
let hist_quantile h p =
  if h.n = 0 then 0.
  else begin
    let p = Float.max 0. (Float.min 1. p) in
    let rank =
      Stdlib.max 1
        (Stdlib.min h.n (int_of_float (Float.ceil (p *. float_of_int h.n))))
    in
    let i = ref 0 and cum = ref 0 in
    while !cum < rank && !i < nbuckets do
      cum := !cum + h.buckets.(!i);
      if !cum < rank then i := !i + 1
    done;
    let est = if !i >= nbounds then h.vmax else bounds.(!i) in
    Float.min h.vmax (Float.max h.vmin est)
  end

let reset () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> Atomic.set c.count 0
      | G g -> g.value <- 0.
      | H h ->
        h.n <- 0;
        h.sum <- 0.;
        h.vmin <- infinity;
        h.vmax <- neg_infinity;
        Array.fill h.buckets 0 nbuckets 0)
    registry

(* Test helper: forget every registration (module-level instruments keep
   working but re-register lazily on next lookup by other callers). *)
let clear () = locked (fun () -> Hashtbl.reset registry)

let sorted_entries () =
  let entries =
    locked (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  in
  List.sort (fun (a, _) (b, _) -> compare a b) entries

let dump () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# obs metrics (deterministic order)\n";
  List.iter
    (fun (name, m) ->
      (match m with
      | C c ->
        Buffer.add_string buf
          (Printf.sprintf "counter    %-52s %d\n" name (Atomic.get c.count))
      | G g ->
        Buffer.add_string buf
          (Printf.sprintf "gauge      %-52s %s\n" name
             (Json.float_repr g.value))
      | H h ->
        Buffer.add_string buf
          (Printf.sprintf
             "histogram  %-52s n=%d sum=%.6f min=%.6f mean=%.6f max=%.6f \
              p50=%.6f p90=%.6f p99=%.6f\n"
             name h.n (hist_sum h) (hist_min h) (hist_mean h) (hist_max h)
             (hist_quantile h 0.50) (hist_quantile h 0.90)
             (hist_quantile h 0.99)));
      match m with
      | C { c_help = ""; _ } | G { g_help = ""; _ } | H { h_help = ""; _ } ->
        ()
      | C { c_help = help; _ } | G { g_help = help; _ } | H { h_help = help; _ }
        ->
        Buffer.add_string buf (Printf.sprintf "#          ^ %s\n" help))
    (sorted_entries ());
  Buffer.contents buf

let metric_json name m =
  let base kind = [ ("name", Json.String name); ("kind", Json.String kind) ] in
  match m with
  | C c -> Json.Obj (base "counter" @ [ ("value", Json.Int (Atomic.get c.count)) ])
  | G g -> Json.Obj (base "gauge" @ [ ("value", Json.Float g.value) ])
  | H h ->
    Json.Obj
      (base "histogram"
      @ [
          ("n", Json.Int h.n);
          ("sum", Json.Float (hist_sum h));
          ("min", Json.Float (hist_min h));
          ("mean", Json.Float (hist_mean h));
          ("max", Json.Float (hist_max h));
          ("p50", Json.Float (hist_quantile h 0.50));
          ("p90", Json.Float (hist_quantile h 0.90));
          ("p99", Json.Float (hist_quantile h 0.99));
        ])

let to_json () =
  Json.Obj
    [
      ("schema", Json.String "impact.metrics/v1");
      ( "metrics",
        Json.List (List.map (fun (n, m) -> metric_json n m) (sorted_entries ()))
      );
    ]

let write path =
  if path = "-" then prerr_string (dump ())
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (dump ()))
  end
