(* perfbench: run one named workload of the repository benchmark and
   print its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--serve-exe PATH] [--work-dir DIR] [--commit ID]

   With --trace 0 the metrics are the end-to-end ones, measured with
   spans and metrics off; with --trace 1 they are the per-layer ones,
   from a run with the program's spans and metrics on.  Context lines
   start with "#"; the last line of standard output is one JSON object
   {correct, attempted, failed, metrics}.  Outputs are checked in every
   run, and any failed check makes the exit code 1. *)

open Harness

let workloads = [ "compile-suite"; "design-sweep"; "serve-mixed" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (compile-suite|design-sweep|serve-mixed) --seed N \
     --seconds S --trace 0|1 [--serve-exe PATH] [--work-dir DIR] [--commit ID]";
  exit 2

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--reference-child" then
    reference_child ();
  let args = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get ?default k =
    match (Hashtbl.find_opt args k, default) with
    | Some v, _ | None, Some v -> v
    | None, None -> usage ()
  in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if (not (List.mem workload workloads)) || seconds < 1 then usage ();
  (* A child process of a workload that times its set-up repeatedly:
     print that set-up's seconds alone. *)
  if get ~default:"0" "setup-only" = "1" then begin
    match workload with
    | "compile-suite" ->
        Printf.printf "%.17g\n" (Compile_suite.setup_s ());
        exit 0
    | _ -> usage ()
  end;
  let serve_exe = get ~default:"_build/default/bin/serve.exe" "serve-exe"
  and work_dir = get ~default:"_perfbench" "work-dir" in
  let lanes = if workload = "compile-suite" then 1 else 2 in
  info "workload %s seed %d seconds %d trace %b" workload seed seconds trace;
  info "host nproc %d ocaml %s commit %s lanes %d scale 1"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (get ~default:"unknown" "commit") lanes;
  let seconds = float_of_int seconds in
  let outcome =
    match workload with
    | "compile-suite" -> Compile_suite.run ~seed ~seconds ~trace
    | "design-sweep" -> Design_sweep.run ~seed ~seconds ~trace
    | _ -> Serve_mixed.run ~serve_exe ~work_dir ~seed ~seconds ~trace
  in
  let catalogue = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        failwith ("metric outside the catalogue: " ^ name))
    outcome.metrics;
  let metrics =
    List.map
      (fun (name, unit_) ->
        (name, unit_, Option.value ~default:0. (List.assoc_opt name outcome.metrics)))
      catalogue
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let correct = outcome.failed = 0 && finite in
  List.iter (fun (name, unit_, v) -> info "%-36s %.6g %s" name v unit_) metrics;
  if not finite then info "FAILED: a metric is not a finite number";
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Int outcome.attempted);
            ("failed", Obs.Json.Int outcome.failed);
            ( "metrics",
              Obs.Json.Obj
                (List.map
                   (fun (name, unit_, v) ->
                     ( name,
                       Obs.Json.Obj
                         [
                           ("value", Obs.Json.Float v);
                           ("unit", Obs.Json.String unit_);
                         ] ))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
