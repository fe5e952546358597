(* serve-mixed: a `serve.exe --socket` child at -j 2 with cmp, wc and
   cccp resident, driven by one client connection that keeps a sliding
   window of eight requests in flight (the daemon's batch width: it
   answers read-only requests only once eight are pending or a barrier
   arrives).  The seeded mix interleaves memo hits with layouts that
   simulate, custom-profile layouts, epoch-advancing uploads (serial
   barriers), certified cheap-tier answers, lints and stats.  It is the
   only workload that reaches the serve layer, the experiment context's
   memo and the cheap-tier abstract interpretation. *)

open Harness

let benches = [ "cmp"; "wc"; "cccp" ]
let custom_benches = [ "cmp"; "wc" ]
let window = 8
let lanes = 2
let read_timeout = 30.

(* Cheap-tier requests sent on their own after the mix: enough for a
   p99 with ten samples beyond it. *)
let burst_requests = 1000
let strategies = List.map (fun (s : Placement.Strategy.t) -> s.id) Placement.Strategy.all

type cls = Hit | Sim | Custom | Certified | Lint | Upload | Stats

let cls_name = function
  | Hit -> "hit"
  | Sim -> "sim"
  | Custom -> "custom"
  | Certified -> "certified"
  | Lint -> "lint"
  | Upload -> "upload"
  | Stats -> "stats"

(* Requests per round of 100, shuffled by the seed. *)
let round_mix =
  [
    (Hit, 60); (Sim, 12); (Custom, 10); (Upload, 5); (Certified, 5); (Lint, 5);
    (Stats, 3);
  ]

(* size, block, ways (0 = direct-mapped), partial fill *)
type geom = int * int * int * bool

let hot_geoms = [ (2048, 64, 0, false); (8192, 32, 2, false) ]
let certified_geoms = [ (2048, 64, 0, false); (4096, 32, 2, false) ]

(* Geometries a layout request may ask for the first time. *)
let fresh_geoms =
  List.concat_map
    (fun size ->
      List.concat_map
        (fun block ->
          List.concat_map
            (fun ways ->
              List.map (fun partial -> (size, block, ways, partial)) [ false; true ])
            [ 0; 2; 4 ])
        [ 16; 32; 64; 128 ])
    [ 256; 512; 1024; 2048; 4096; 8192; 16384 ]
  |> List.filter (fun ((size, block, ways, partial) as g) ->
         (not (List.mem g hot_geoms))
         &&
         match
           Icache.Config.make ~size ~block
             ~assoc:(if ways = 0 then Icache.Config.Direct else Icache.Config.Ways ways)
             ~fill:(if partial then Icache.Config.Partial else Icache.Config.Whole)
             ()
         with
         | _ -> true
         | exception Icache.Config.Invalid _ -> false)

let geom_json (size, block, ways, partial) =
  Obs.Json.Obj
    [
      ("size", Obs.Json.Int size);
      ("block", Obs.Json.Int block);
      ("assoc", if ways = 0 then Obs.Json.String "direct" else Obs.Json.Int ways);
      ("fill", Obs.Json.String (if partial then "partial" else "whole"));
    ]

let request id typ fields =
  Obs.Json.Obj
    ([
       ("schema", Obs.Json.String Serve.Protocol.schema);
       ("id", Obs.Json.Int id);
       ("type", Obs.Json.String typ);
     ]
    @ fields)

let layout id ~bench ~strategy ?profile ?deadline geom =
  request id "layout-request"
    ([
       ("bench", Obs.Json.String bench);
       ("strategy", Obs.Json.String strategy);
       ("cache", geom_json geom);
     ]
    @ Option.fold ~none:[] ~some:(fun p -> [ ("profile", Obs.Json.String p) ]) profile
    @ Option.fold ~none:[] ~some:(fun d -> [ ("deadline_ms", Obs.Json.Int d) ]) deadline)

(* ------------------------------------------------------------------ *)
(* Request generator                                                   *)
(* ------------------------------------------------------------------ *)

type gen = {
  st : Random.State.t;
  profiles : (string * Vm.Profile.t) list;  (** custom bench -> profile *)
  epochs : (string, int) Hashtbl.t;
  fresh : (string * (string * geom) Queue.t) list;
  mutable turn : int;
  mutable round : cls list;
  mutable next_id : int;
}

let custom_name bench = "perfbench-" ^ bench
let pick st l = List.nth l (Random.State.int st (List.length l))

(* Fresh (strategy, geometry) pairs of one bench, round-robin over the
   (block, ways, fill) strata in the order [st] draws, so that every
   chunk of the mix simulates a like mix of costly and cheap
   geometries. *)
let fresh_queue st =
  let universe =
    List.concat_map (fun s -> List.map (fun g -> (s, g)) fresh_geoms) strategies
  in
  let stratum (_, (_, block, ways, partial)) = (block, ways, partial) in
  let members =
    shuffle st (List.sort_uniq compare (List.map stratum universe))
    |> List.map (fun k ->
           Queue.of_seq
             (List.to_seq (shuffle st (List.filter (fun x -> stratum x = k) universe))))
  in
  let q = Queue.create () in
  while List.exists (fun m -> not (Queue.is_empty m)) members do
    List.iter (fun m -> Option.iter (fun x -> Queue.add x q) (Queue.take_opt m)) members
  done;
  q

(* The fresh geometries come in the same order whatever the seed: each
   costs a different amount to simulate, so drawing them by the seed
   would change how much work a run does. *)
let make_gen ~seed profiles =
  let st = Random.State.make [| seed |] in
  let fixed = Random.State.make [| 0 |] in
  let fresh = List.map (fun b -> (b, fresh_queue fixed)) benches in
  { st; profiles; epochs = Hashtbl.create 4; fresh; turn = 0; round = []; next_id = 1 }

let fresh_id g =
  let id = g.next_id in
  g.next_id <- id + 1;
  id

let upload g bench =
  let epoch = 1 + Option.value ~default:0 (Hashtbl.find_opt g.epochs bench) in
  Hashtbl.replace g.epochs bench epoch;
  let id = fresh_id g in
  ( id,
    Serve.Protocol.upload_request_of_profile ~id:(Obs.Json.Int id)
      ~name:(custom_name bench) ~bench ~epoch (List.assoc bench g.profiles) )

let make_request g cls =
  let st = g.st in
  match cls with
  | Hit ->
      let id = fresh_id g in
      ( id,
        layout id ~bench:(pick st benches) ~strategy:(pick st strategies)
          (pick st hot_geoms) )
  | Sim ->
      (* Benches take turns, so every round simulates the same mix of
         trace lengths. *)
      let bench = List.nth benches (g.turn mod List.length benches) in
      g.turn <- g.turn + 1;
      let strategy, geom = Queue.pop (List.assoc bench g.fresh) in
      let id = fresh_id g in
      (id, layout id ~bench ~strategy geom)
  | Custom ->
      let bench = pick st custom_benches in
      let id = fresh_id g in
      ( id,
        layout id ~bench ~strategy:(pick st strategies) ~profile:(custom_name bench)
          (pick st hot_geoms) )
  | Certified ->
      let id = fresh_id g in
      ( id,
        layout id ~bench:(pick st benches) ~strategy:(pick st strategies)
          ~deadline:(1 + Random.State.int st 5) (pick st certified_geoms) )
  | Lint ->
      let id = fresh_id g in
      ( id,
        request id "lint-request"
          [
            ("bench", Obs.Json.String (pick st benches));
            ("strategy", Obs.Json.String (pick st strategies));
          ] )
  | Upload -> upload g (pick st custom_benches)
  | Stats ->
      let id = fresh_id g in
      (id, request id "stats" [])

let next g =
  if g.round = [] then
    g.round <-
      shuffle g.st (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) round_mix);
  match g.round with
  | c :: rest ->
      g.round <- rest;
      (c, make_request g c)
  | [] -> assert false

(* ------------------------------------------------------------------ *)
(* Connection                                                          *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  mutable pending : string;
  mutable alive : bool;  (** false once a read timed out or hit EOF *)
}

let send c json =
  let s = Obs.Json.to_string json ^ "\n" in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* Next response line, or [None] when the daemon closed the connection
   or stayed silent for [read_timeout] seconds — a stalled daemon shows
   up as failed requests, never as a hung benchmark.  Either way the
   connection is given up. *)
let recv c =
  let chunk = Bytes.create 65536 in
  let deadline = now () +. read_timeout in
  let rec go () =
    match String.index_opt c.pending '\n' with
    | Some i ->
        let line = String.sub c.pending 0 i in
        c.pending <- String.sub c.pending (i + 1) (String.length c.pending - i - 1);
        Some line
    | None ->
        let left = deadline -. now () in
        if left <= 0. then None
        else
          match Unix.select [ c.fd ] [] [] left with
          | [], _, _ -> None
          | _ ->
              let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
              if n = 0 then None
              else begin
                c.pending <- c.pending ^ Bytes.sub_string chunk 0 n;
                go ()
              end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let line = if c.alive then go () else None in
  if line = None then c.alive <- false;
  line

(* ------------------------------------------------------------------ *)
(* Daemon                                                              *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; sock : string; conn : conn }

let spawn ~serve_exe ~work_dir ~telemetry =
  let sock = Filename.concat work_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let args =
    [ serve_exe; "--socket"; sock; "-b"; String.concat "," benches; "-j"; string_of_int lanes; "-q" ]
    @ Option.fold ~none:[]
        ~some:(fun (trace, metrics) -> [ "--trace-out"; trace; "--metrics-out"; metrics ])
        telemetry
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process serve_exe (Array.of_list args) devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let deadline = now () +. 60. in
  let rec connect () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "serve.exe exited during start-up");
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if now () > deadline then failwith "serve.exe did not open its socket";
        Unix.sleepf 0.02;
        connect ()
  in
  match connect () with
  | fd -> { pid; sock; conn = { fd; pending = ""; alive = true } }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e

(* Shut the daemon down and wait for it; killed if it will not go, or
   at once when it already stopped answering. *)
let stop d ~id =
  (try
     if d.conn.alive then begin
       send d.conn (request id "shutdown" []);
       ignore (recv d.conn)
     end
   with Unix.Unix_error _ -> ());
  (try Unix.close d.conn.fd with Unix.Unix_error _ -> ());
  let deadline = if d.conn.alive then now () +. 60. else now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.05;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  try Unix.unlink d.sock with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Windowed exchange                                                   *)
(* ------------------------------------------------------------------ *)

type sample = { cls : cls; latency_ms : float }

type exchange = {
  samples : sample list;
  sent : int;
  failed : int;
  last : Obs.Json.t option;  (** the last response received *)
  elapsed : float;
}

let str key j = match Obs.Json.member key j with Some (Obs.Json.String s) -> s | _ -> ""
let has key j = Obs.Json.member key j <> None

(* What a correct answer to each class looks like. *)
let answer_ok cls j =
  str "type" j = "response"
  && str "status" j = "ok"
  &&
  match cls with
  | Hit | Sim -> str "tier" j = "none" && has "predicted" j
  | Custom ->
      str "tier" j = "none" && has "predicted" j
      && (match Obs.Json.member "profile" j with
         | Some p -> str "source" p = "fresh"
         | None -> false)
  | Certified -> has "certified" j
  | Upload ->
      Obs.Json.member "accepted" j = Some (Obs.Json.Bool true)
      && Obs.Json.member "poisoned" j = Some (Obs.Json.Bool false)
  | Lint | Stats -> true

(* Keep [window] requests in flight while [next] yields requests, then
   flush the daemon's partial batch with a stats barrier and drain. *)
let exchange ?(observe = fun _ _ -> ()) c ~next ~flush =
  let in_flight = Hashtbl.create 16 in
  let samples = ref [] and sent = ref 0 and failed = ref 0 and last = ref None in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr failed;
        if !failed <= 5 then info "FAILED %s" s)
      fmt
  in
  let clip line = String.sub line 0 (min 300 (String.length line)) in
  let submit (cls, (id, json)) =
    Hashtbl.replace in_flight id (cls, now ());
    incr sent;
    send c json
  in
  let t0 = now () in
  let sending = ref true in
  let rec loop () =
    while !sending && Hashtbl.length in_flight < window do
      match next () with
      | Some r -> submit r
      | None ->
          sending := false;
          submit (Stats, flush ())
    done;
    if Hashtbl.length in_flight > 0 then
      match recv c with
      | None ->
          let lost = Hashtbl.length in_flight in
          fail "%d requests unanswered after %.0f s" lost read_timeout;
          failed := !failed + lost - 1
      | Some line ->
          let t = now () in
          (match Obs.Json.parse line with
          | Error e -> fail "unparseable response (%s): %s" e (clip line)
          | Ok j -> (
              match Obs.Json.member "id" j with
              | Some (Obs.Json.Int id) when Hashtbl.mem in_flight id ->
                  let cls, t_sent = Hashtbl.find in_flight id in
                  Hashtbl.remove in_flight id;
                  last := Some j;
                  if answer_ok cls j then begin
                    observe cls j;
                    samples := { cls; latency_ms = (t -. t_sent) *. 1000. } :: !samples
                  end
                  else fail "%s request %d: %s" (cls_name cls) id (clip line)
              | _ -> fail "response to no request in flight: %s" (clip line)));
          loop ()
  in
  (try if c.alive then loop ()
   with Unix.Unix_error (e, _, _) ->
     c.alive <- false;
     let lost = Hashtbl.length in_flight in
     fail "connection lost: %s" (Unix.error_message e);
     failed := !failed + max 0 (lost - 1));
  {
    samples = List.rev !samples;
    sent = !sent;
    failed = !failed;
    last = !last;
    elapsed = now () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* One daemon's life: start, warm, measure, stop                       *)
(* ------------------------------------------------------------------ *)

type phase = {
  setup_s : float;
  first_touch_ms : float;
  lone_answered : bool option;
  mix : exchange;  (** every chunk of the mix, merged *)
  chunk_count : int;  (** chunks of [chunk_requests] the mix was sent in *)
  refs : float list;  (** reference-kernel times between the chunks *)
  burst : exchange;  (** cheap-tier requests only, after the mix *)
  warm_responses : (cls * Obs.Json.t) list;
  warm_sent : int;
  warm_failed : int;
  rss_mb : float;
}

let of_list l =
  let rest = ref l in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some x

(* The warm set: every hot layout once (later requests for them hit the
   memo), one fresh-epoch upload and custom layout per custom profile. *)
let warm_requests g =
  let custom_uploads = List.map (fun b -> (Upload, upload g b)) custom_benches in
  let hits =
    List.concat_map
      (fun bench ->
        List.concat_map
          (fun strategy ->
            List.map
              (fun geom ->
                let id = fresh_id g in
                (Hit, (id, layout id ~bench ~strategy geom)))
              hot_geoms)
          strategies)
      benches
  in
  let customs =
    List.concat_map
      (fun bench ->
        List.map
          (fun strategy ->
            let id = fresh_id g in
            ( Custom,
              ( id,
                layout id ~bench ~strategy ~profile:(custom_name bench)
                  (List.hd hot_geoms) ) ))
          strategies)
      custom_benches
  in
  custom_uploads @ hits @ customs

(* Exactly one batch of eight cheap-tier requests at geometries the
   daemon has not analysed yet: its latency is the first-touch cost of
   the certified tier. *)
let first_touch_requests g =
  let all =
    List.concat_map
      (fun bench -> List.map (fun geom -> (bench, geom)) certified_geoms)
      benches
  in
  List.filteri (fun i _ -> i < window) (all @ all)
  |> List.map (fun (bench, geom) ->
         let id = fresh_id g in
         (Certified, (id, layout id ~bench ~strategy:"impact" ~deadline:5 geom)))

(* A lone read-only request, with nothing else in flight: is it answered
   within two seconds?  (The daemon flushes a batch only once eight
   requests are pending or a barrier arrives.)  The rest of the batch
   is sent afterwards so the connection ends clean. *)
let probe_lone c g =
  let reqs = List.init window (fun _ -> make_request g Hit) in
  send c (snd (List.hd reqs));
  let answered = Unix.select [ c.fd ] [] [] 2.0 <> ([], [], []) in
  List.iter (fun (_, j) -> send c j) (List.tl reqs);
  let got = List.init window (fun _ -> recv c) in
  (answered, List.length (List.filter Option.is_some got))

(* Pipelines of the custom-profile benches, whose profiles the client
   uploads (a profile names blocks of the inlined program). *)
let client_profiles () =
  List.map
    (fun bench ->
      let b = Workloads.Registry.find bench in
      let p =
        Placement.Pipeline.run (Workloads.Bench.program b)
          ~inputs:(Workloads.Bench.profile_inputs b)
      in
      (bench, p.Placement.Pipeline.profile))
    custom_benches

(* Requests per chunk of the mix: one round of [round_mix]. *)
let chunk_requests = List.fold_left (fun acc (_, n) -> acc + n) 0 round_mix

let merge chunks =
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 chunks in
  {
    samples = List.concat_map (fun e -> e.samples) chunks;
    sent = sum (fun e -> e.sent);
    failed = sum (fun e -> e.failed);
    last = List.fold_left (fun acc e -> if e.last = None then acc else e.last) None chunks;
    elapsed = List.fold_left (fun acc e -> acc +. e.elapsed) 0. chunks;
  }

(* Set-up (the client's profiles, then a daemon started, warmed and its
   cheap tier touched once), then the mix in chunks of [chunk_requests]
   for [seconds] and at least 1000 requests, then the cheap-tier burst.
   The daemon is stopped after, whatever happens. *)
let run_phase ~serve_exe ~work_dir ~seed ~seconds ~telemetry ~lone =
  let t0 = now () in
  let profiles = client_profiles () in
  let d = spawn ~serve_exe ~work_dir ~telemetry in
  let g = make_gen ~seed profiles in
  let flush () =
    let id = fresh_id g in
    (id, request id "stats" [])
  in
  Fun.protect ~finally:(fun () -> stop d ~id:(fresh_id g)) @@ fun () ->
  let warm_responses = ref [] in
  let warm =
    exchange d.conn ~next:(of_list (warm_requests g)) ~flush
      ~observe:(fun cls j -> warm_responses := (cls, j) :: !warm_responses)
  in
  let touch = exchange d.conn ~next:(of_list (first_touch_requests g)) ~flush in
  let setup_s = now () -. t0 in
  let first_touch_ms =
    List.fold_left
      (fun acc s -> if s.cls = Certified then Float.max acc s.latency_ms else acc)
      0. touch.samples
  in
  let lone_answered, lone_failed =
    if lone then
      let answered, got = probe_lone d.conn g in
      (Some answered, window - got)
    else (None, 0)
  in
  let chunks = ref [] in
  let chunk () =
    let left = ref chunk_requests in
    let next () =
      if !left = 0 then None
      else begin
        decr left;
        Some (next g)
      end
    in
    let e = exchange d.conn ~next ~flush in
    chunks := e :: !chunks;
    e
  in
  let _, refs =
    timed_units ~lanes ~min_rounds:(1000 / chunk_requests) ~seconds ~keep:ignore
      [ chunk ]
  in
  let chunks = List.rev !chunks in
  let burst =
    exchange d.conn ~flush
      ~next:
        (of_list
           (List.init burst_requests (fun _ -> (Certified, make_request g Certified))))
  in
  {
    setup_s;
    first_touch_ms;
    lone_answered;
    mix = merge chunks;
    chunk_count = List.length chunks;
    refs;
    burst;
    warm_responses = !warm_responses;
    warm_sent = warm.sent + touch.sent + (if lone then window else 0);
    warm_failed = warm.failed + touch.failed + lone_failed;
    rss_mb = peak_rss_mb (string_of_int d.pid);
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let latencies ?cls samples =
  List.filter_map
    (fun s ->
      if Option.fold ~none:true ~some:(( = ) s.cls) cls then Some s.latency_ms
      else None)
    samples

let rps p = float_of_int (List.length p.mix.samples) /. p.mix.elapsed

(* Seconds per 1000 requests of the mix. *)
let per_thousand p = 1000. *. p.mix.elapsed /. float_of_int p.mix.sent

(* Mean duration of each daemon stage span, from its Chrome trace. *)
let stage_means path =
  let events =
    match Obs.Json.of_file path with
    | Ok j -> (
        match Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list with
        | Some l -> l
        | None -> [])
    | Error e -> failwith ("daemon trace: " ^ e)
  in
  List.map
    (fun stage ->
      let durs =
        List.filter_map
          (fun e ->
            match (Obs.Json.member "name" e, Obs.Json.member "dur" e) with
            | Some (Obs.Json.String n), Some (Obs.Json.Float d)
              when n = "serve." ^ stage ->
                Some (d /. 1000.)
            | Some (Obs.Json.String n), Some (Obs.Json.Int d)
              when n = "serve." ^ stage ->
                Some (float_of_int d /. 1000.)
            | _ -> None)
          events
      in
      let key =
        "serve.stage_"
        ^ String.map (fun c -> if c = '-' then '_' else c) stage
        ^ "_ms"
      in
      let n = List.length durs in
      (key, if n = 0 then 0. else List.fold_left ( +. ) 0. durs /. float_of_int n))
    [ "admission"; "store-lookup"; "strategy-map"; "certify"; "simulate" ]

(* A counter value or histogram field from the daemon's metrics dump. *)
let dump_value path ~name ~field =
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
  in
  let words l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  let named l = match words l with _ :: n :: _ -> n = name | _ -> false in
  match List.find_opt named lines with
  | None -> 0.
  | Some l -> (
      match (field, words l) with
      | None, [ _; _; v ] -> float_of_string v
      | Some f, _ :: _ :: kvs ->
          List.find_map
            (fun kv ->
              match String.split_on_char '=' kv with
              | [ k; v ] when k = f -> Some (float_of_string v)
              | _ -> None)
            kvs
          |> Option.value ~default:0.
      | _ -> 0.)

let degraded_pct (stats : Obs.Json.t option) =
  let tiers =
    match Option.bind stats (Obs.Json.member "by_tier") with
    | Some (Obs.Json.Obj l) ->
        List.map (fun (k, v) -> (k, match v with Obs.Json.Int n -> n | _ -> 0)) l
    | _ -> []
  in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 tiers in
  let degraded =
    List.fold_left (fun acc (k, n) -> if k = "none" then acc else acc + n) 0 tiers
  in
  pct (float_of_int degraded) (float_of_int total)

(* Simulated miss ratio of the impact layouts the warm-up served: the
   hot geometries on every resident bench, the same set in every run. *)
let impact_miss_pct responses =
  let acc, miss =
    List.fold_left
      (fun (acc, miss) (cls, j) ->
        match (cls, Obs.Json.member "predicted" j) with
        | Hit, Some p when str "strategy" j = "impact" ->
            let int k =
              match Obs.Json.member k p with Some (Obs.Json.Int n) -> n | _ -> 0
            in
            (acc + int "accesses", miss + int "misses")
        | _ -> (acc, miss))
      (0, 0) responses
  in
  pct (float_of_int miss) (float_of_int acc)

let run ~serve_exe ~work_dir ~seed ~seconds ~trace =
  (* A daemon that dies must fail requests, not kill the client. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let phase ?telemetry ~lone seconds =
    let p = run_phase ~serve_exe ~work_dir ~seed ~seconds ~telemetry ~lone in
    info "phase: %d requests in %d chunks, %.2f s, after a %.2f s set-up; \
          %.3f s per 1000 requests, reference mean %.2f ms of %d; \
          certified first touch %.1f ms"
      p.mix.sent p.chunk_count p.mix.elapsed p.setup_s (per_thousand p)
      (1000. *. mean p.refs) (List.length p.refs) p.first_touch_ms;
    p
  in
  let outcome phases metrics =
    let sum f = List.fold_left (fun acc p -> acc + f p) 0 phases in
    {
      attempted = sum (fun p -> p.warm_sent + p.mix.sent + p.burst.sent);
      failed = sum (fun p -> p.warm_failed + p.mix.failed + p.burst.failed);
      metrics;
    }
  in
  if not trace then
    let p = phase seconds ~lone:false in
    outcome [ p ]
      [
        ("setup_s", p.setup_s);
        ("peak_rss_mb", p.rss_mb);
        ("work_norm", per_thousand p /. mean p.refs);
        ("impact_miss_pct", impact_miss_pct p.warm_responses);
      ]
  else begin
    let untraced = phase (seconds /. 2.) ~lone:true in
    (match untraced.lone_answered with
    | Some a ->
        info "finding: a lone read-only request is %sanswered within 2 s"
          (if a then "" else "not ")
    | None -> ());
    let trace_file = Filename.concat work_dir "serve-trace.json"
    and metrics_file = Filename.concat work_dir "serve-metrics.txt" in
    let traced =
      phase (seconds /. 2.) ~lone:false ~telemetry:(trace_file, metrics_file)
    in
    let per_class =
      List.concat_map
        (fun cls ->
          (* The cheap tier is timed in its own burst: inside the mix its
             latency is the batch it waits in. *)
          let samples =
            if cls = Certified then traced.burst.samples else traced.mix.samples
          in
          let xs = latencies ~cls samples and n = cls_name cls in
          [
            ("serve." ^ n ^ "_p50_ms", if xs = [] then 0. else Stats.median xs);
            ("serve." ^ n ^ "_p99_ms", tail_ms ("serve." ^ n) xs);
          ])
        [ Hit; Sim; Custom; Certified; Lint; Upload ]
    in
    let hits = dump_value metrics_file ~name:"context.memo_hits" ~field:None
    and misses = dump_value metrics_file ~name:"context.memo_misses" ~field:None in
    let all = latencies traced.mix.samples in
    outcome [ untraced; traced ]
      ((("serve.p50_ms", Stats.median all)
        :: ("serve.tail_ms", tail_ms "serve" all)
        :: per_class)
      @ stage_means trace_file
      @ [
          ( "serve.batch_size_mean",
            dump_value metrics_file ~name:"serve.batch_size" ~field:(Some "mean") );
          ("experiments.memo_hit_rate", hits /. (hits +. misses));
          ("serve.degraded_pct", degraded_pct traced.mix.last);
          ("obs.trace_overhead_pct", pct (rps untraced -. rps traced) (rps traced));
          ("host.work_s", per_thousand untraced);
          ("host.reference_ms", 1000. *. mean untraced.refs);
        ])
  end
