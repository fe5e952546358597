(* Placement.Lru against a naive reference: the stamp-scan policy the
   bounded caches used to hand-roll (every use restamps the entry from a
   monotone clock; trimming removes the stalest stamp until the table
   fits).  Random find/peek/mem/add/trim sequences must agree on every
   lookup, every trim count, the eviction total, and the full contents
   in recency order — so the two pick exactly the same victims. *)

module Lru = Placement.Lru

module Ref = struct
  type t = {
    cap : int;
    mutable clock : int;
    mutable entries : (int * (int * int)) list;  (* key -> value, stamp *)
    mutable evictions : int;
  }

  let create cap = { cap; clock = 0; entries = []; evictions = 0 }

  let stamp t =
    t.clock <- t.clock + 1;
    t.clock

  let set t k v =
    t.entries <- (k, (v, stamp t)) :: List.remove_assoc k t.entries

  let find t k =
    match List.assoc_opt k t.entries with
    | Some (v, _) ->
        set t k v;
        Some v
    | None -> None

  let peek t k = Option.map fst (List.assoc_opt k t.entries)
  let mem t k = List.mem_assoc k t.entries

  let trim t =
    let dropped = ref 0 in
    while List.length t.entries > t.cap do
      let stalest, _ =
        List.fold_left
          (fun (bk, bs) (k, (_, s)) -> if s < bs then (k, s) else (bk, bs))
          (-1, max_int) t.entries
      in
      t.entries <- List.remove_assoc stalest t.entries;
      incr dropped
    done;
    t.evictions <- t.evictions + !dropped;
    !dropped

  (* Most recently used first, like [Lru.fold]. *)
  let contents t =
    List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a) t.entries
    |> List.map (fun (k, (v, _)) -> (k, v))
end

type op = Find of int | Peek of int | Mem of int | Add of int * int | Trim

let show_op = function
  | Find k -> Printf.sprintf "find %d" k
  | Peek k -> Printf.sprintf "peek %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Trim -> "trim"

let gen_op =
  let open QCheck.Gen in
  let key = int_range 0 7 in
  frequency
    [
      (3, map (fun k -> Find k) key);
      (1, map (fun k -> Peek k) key);
      (2, map (fun k -> Mem k) key);
      (4, map2 (fun k v -> Add (k, v)) key (int_range 0 99));
      (2, return Trim);
    ]

let arb_case =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "cap %d: %s" cap
        (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(pair (int_range 1 5) (list_size (int_range 0 60) gen_op))

let contents lru = List.rev (Lru.fold (fun k v acc -> (k, v) :: acc) lru [])

let model =
  QCheck.Test.make ~name:"matches the stamp-scan reference" ~count:500 arb_case
    (fun (cap, ops) ->
      let lru = Lru.create ~cap () and r = Ref.create cap in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Find k -> Lru.find lru k = Ref.find r k
            | Peek k -> Lru.peek lru k = Ref.peek r k
            | Mem k -> Lru.mem lru k = Ref.mem r k
            | Add (k, v) ->
                Lru.add lru k v;
                Ref.set r k v;
                true
            | Trim -> Lru.trim lru = Ref.trim r
          in
          same
          && contents lru = Ref.contents r
          && Lru.length lru = List.length r.Ref.entries
          && Lru.evictions lru = r.Ref.evictions)
        ops)

let lookups_without_refresh () =
  let lru = Lru.create ~cap:2 () in
  Lru.add lru "a" 1;
  Lru.add lru "b" 2;
  Alcotest.(check bool) "mem sees a" true (Lru.mem lru "a");
  Alcotest.(check (option int)) "peek sees a" (Some 1) (Lru.peek lru "a");
  Lru.add lru "c" 3;
  Alcotest.(check int) "one dropped" 1 (Lru.trim lru);
  Alcotest.(check bool) "a stayed least recent, so it went" false
    (Lru.mem lru "a");
  ignore (Lru.find lru "b");
  Lru.add lru "d" 4;
  ignore (Lru.trim lru);
  Alcotest.(check (list (pair string int))) "find refreshed b"
    [ ("d", 4); ("b", 2) ] (contents lru)

let replace_is_not_eviction () =
  let lru = Lru.create ~cap:1 () in
  Lru.add lru 0 1;
  Lru.add lru 0 2;
  Alcotest.(check int) "nothing to trim" 0 (Lru.trim lru);
  Alcotest.(check int) "no eviction counted" 0 (Lru.evictions lru);
  Alcotest.(check (option int)) "value replaced" (Some 2) (Lru.find lru 0)

let add_never_trims () =
  let lru = Lru.create ~cap:1 () in
  List.iter (fun k -> Lru.add lru k k) [ 1; 2; 3 ];
  Alcotest.(check int) "over the cap until trimmed" 3 (Lru.length lru);
  Alcotest.(check int) "trim drops the overflow" 2 (Lru.trim lru);
  Alcotest.(check (list (pair int int)))
    "newest kept" [ (3, 3) ] (contents lru);
  let unbounded = Lru.create () in
  List.iter (fun k -> Lru.add unbounded k k) [ 1; 2; 3 ];
  Alcotest.(check int) "unbounded trim is a no-op" 0 (Lru.trim unbounded);
  Alcotest.check_raises "cap 0 rejected"
    (Invalid_argument "Lru.create: cap must be >= 1") (fun () ->
      ignore (Lru.create ~cap:0 ()))

let suite =
  [
    QCheck_alcotest.to_alcotest model;
    Alcotest.test_case "mem and peek do not refresh" `Quick
      lookups_without_refresh;
    Alcotest.test_case "replace is not an eviction" `Quick
      replace_is_not_eviction;
    Alcotest.test_case "add never trims" `Quick add_never_trims;
  ]
