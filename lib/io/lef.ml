(* Emission and parsing of the LEF subset. The emitter's normal form is
   what [parse] is tested against as a fixed point; the parser is
   whitespace-insensitive like any LEF reader. *)

exception E of Lex.error

let err_at (tok : Lex.token) ~expected =
  raise
    (E
       {
         Lex.e_line = tok.Lex.line;
         e_col = tok.Lex.col;
         expected;
         got = Printf.sprintf "%S" tok.Lex.text;
       })

let tok lx ~expected =
  match Lex.next lx with
  | Some t -> t
  | None ->
    let line, col = Lex.pos_after lx in
    raise (E { Lex.e_line = line; e_col = col; expected; got = "end of input" })

let expect lx kw =
  let t = tok lx ~expected:(Printf.sprintf "%S" kw) in
  if not (String.equal t.Lex.text kw) then
    err_at t ~expected:(Printf.sprintf "%S" kw)

let word lx ~expected = (tok lx ~expected).Lex.text

let int_tok lx ~expected =
  let t = tok lx ~expected in
  match int_of_string_opt t.Lex.text with
  | Some n -> n
  | None -> err_at t ~expected

let float_tok lx ~expected =
  let t = tok lx ~expected in
  match float_of_string_opt t.Lex.text with
  | Some f -> f
  | None -> err_at t ~expected

(* --- vocabulary ------------------------------------------------------ *)

let dir_to_string = function
  | Pdk.Stdcell.Input -> "INPUT"
  | Pdk.Stdcell.Output -> "OUTPUT"
  | Pdk.Stdcell.Clock -> "CLOCK"

let kind_to_string = function
  | Pdk.Stdcell.Inv -> "INV"
  | Buf -> "BUF"
  | Nand2 -> "NAND2"
  | Nor2 -> "NOR2"
  | And2 -> "AND2"
  | Or2 -> "OR2"
  | Aoi21 -> "AOI21"
  | Oai21 -> "OAI21"
  | Xor2 -> "XOR2"
  | Xnor2 -> "XNOR2"
  | Mux2 -> "MUX2"
  | Dff -> "DFF"
  | Fill -> "FILL"

let kind_of_string = function
  | "INV" -> Some Pdk.Stdcell.Inv
  | "BUF" -> Some Buf
  | "NAND2" -> Some Nand2
  | "NOR2" -> Some Nor2
  | "AND2" -> Some And2
  | "OR2" -> Some Or2
  | "AOI21" -> Some Aoi21
  | "OAI21" -> Some Oai21
  | "XOR2" -> Some Xor2
  | "XNOR2" -> Some Xnor2
  | "MUX2" -> Some Mux2
  | "DFF" -> Some Dff
  | "FILL" -> Some Fill
  | _ -> None

let layer_of_string = function
  | "M0" -> Some Pdk.Layer.M0
  | "M1" -> Some Pdk.Layer.M1
  | "M2" -> Some Pdk.Layer.M2
  | "M3" -> Some Pdk.Layer.M3
  | "M4" -> Some Pdk.Layer.M4
  | _ -> None

(* shortest float representation that survives float_of_string (the
   Obs.Json convention) *)
let float_str f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let dbu_per_micron = 1000

(* --- emission -------------------------------------------------------- *)

let emit (lib : Pdk.Libgen.t) =
  let t = lib.tech in
  let buf = Buffer.create (1 lsl 14) in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "VERSION 5.8 ;\n";
  addf "ARCH %s ;\n" (Pdk.Cell_arch.to_string t.Pdk.Tech.arch);
  addf "UNITS DATABASE MICRONS %d ;\n" dbu_per_micron;
  addf "SITE core SIZE %d BY %d ;\n" t.Pdk.Tech.site_width t.Pdk.Tech.row_height;
  addf "LAYER M0 DIRECTION HORIZONTAL PITCH %d OFFSET 0 ;\n" t.Pdk.Tech.m0_pitch;
  addf "LAYER M1 DIRECTION VERTICAL PITCH %d OFFSET %d ;\n"
    t.Pdk.Tech.site_width t.Pdk.Tech.m1_offset;
  addf "LAYER M2 DIRECTION HORIZONTAL PITCH %d OFFSET 0 ;\n" t.Pdk.Tech.m2_pitch;
  addf "VM1RULES GAMMA %d DELTA %d ;\n" t.Pdk.Tech.gamma t.Pdk.Tech.delta;
  List.iter
    (fun (c : Pdk.Stdcell.t) ->
      addf "MACRO %s\n" c.name;
      addf "  KIND %s DRIVE %d ;\n" (kind_to_string c.kind) c.drive;
      addf "  SIZE %d BY %d ;\n" c.width c.height;
      addf "  ELECTRICAL %s %s %s %s ;\n" (float_str c.cap_in)
        (float_str c.drive_res)
        (float_str c.intrinsic_delay)
        (float_str c.leakage);
      List.iter
        (fun (p : Pdk.Stdcell.pin) ->
          addf "  PIN %s\n" p.pin_name;
          addf "    DIRECTION %s ;\n" (dir_to_string p.dir);
          addf "    PORT\n";
          List.iter
            (fun (layer, (r : Geom.Rect.t)) ->
              addf "      LAYER %s ;\n" (Pdk.Layer.to_string layer);
              addf "      RECT %d %d %d %d ;\n" r.lx r.ly r.hx r.hy)
            p.shapes;
          addf "    END\n";
          addf "  END %s\n" p.pin_name)
        c.pins;
      addf "END %s\n" c.name)
    lib.cells;
  addf "END LIBRARY\n";
  Buffer.contents buf

let emit_file path lib =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (emit lib))

(* --- parsing --------------------------------------------------------- *)

let port lx =
  expect lx "PORT";
  let shapes = ref [] in
  let current_layer = ref None in
  let rec go () =
    let t = tok lx ~expected:"\"LAYER\", \"RECT\" or \"END\"" in
    match t.Lex.text with
    | "LAYER" ->
      let lt = tok lx ~expected:"a layer name (M0..M4)" in
      (match layer_of_string lt.Lex.text with
      | Some l -> current_layer := Some l
      | None -> err_at lt ~expected:"a layer name (M0..M4)");
      expect lx ";";
      go ()
    | "RECT" ->
      let layer =
        match !current_layer with
        | Some l -> l
        | None -> err_at t ~expected:"\"LAYER\" before the first \"RECT\""
      in
      let a = int_tok lx ~expected:"an integer coordinate" in
      let b = int_tok lx ~expected:"an integer coordinate" in
      let c = int_tok lx ~expected:"an integer coordinate" in
      let d = int_tok lx ~expected:"an integer coordinate" in
      expect lx ";";
      shapes := (layer, Geom.Rect.make ~lx:a ~ly:b ~hx:c ~hy:d) :: !shapes;
      go ()
    | "END" -> List.rev !shapes
    | _ -> err_at t ~expected:"\"LAYER\", \"RECT\" or \"END\""
  in
  go ()

let pin lx =
  let name = word lx ~expected:"a pin name" in
  expect lx "DIRECTION";
  let dt = tok lx ~expected:"a direction (INPUT|OUTPUT|CLOCK)" in
  let dir =
    match dt.Lex.text with
    | "INPUT" -> Pdk.Stdcell.Input
    | "OUTPUT" -> Pdk.Stdcell.Output
    | "CLOCK" -> Pdk.Stdcell.Clock
    | _ -> err_at dt ~expected:"a direction (INPUT|OUTPUT|CLOCK)"
  in
  expect lx ";";
  let shapes = port lx in
  expect lx "END";
  expect lx name;
  { Pdk.Stdcell.pin_name = name; dir; shapes }

let macro lx (tech : Pdk.Tech.t) =
  let name = word lx ~expected:"a macro name" in
  expect lx "KIND";
  let kt = tok lx ~expected:"a cell kind (INV|BUF|NAND2|...)" in
  let kind =
    match kind_of_string kt.Lex.text with
    | Some k -> k
    | None -> err_at kt ~expected:"a cell kind (INV|BUF|NAND2|...)"
  in
  expect lx "DRIVE";
  let drive = int_tok lx ~expected:"an integer drive strength" in
  expect lx ";";
  expect lx "SIZE";
  let wt = tok lx ~expected:"an integer width" in
  let width =
    match int_of_string_opt wt.Lex.text with
    | Some w -> w
    | None -> err_at wt ~expected:"an integer width"
  in
  expect lx "BY";
  let height = int_tok lx ~expected:"an integer height" in
  expect lx ";";
  if width mod tech.Pdk.Tech.site_width <> 0 then
    err_at wt
      ~expected:
        (Printf.sprintf "a width divisible by the site width (%d)"
           tech.Pdk.Tech.site_width);
  expect lx "ELECTRICAL";
  let cap_in = float_tok lx ~expected:"a pin capacitance (fF)" in
  let drive_res = float_tok lx ~expected:"a drive resistance (kOhm)" in
  let intrinsic_delay = float_tok lx ~expected:"an intrinsic delay (ps)" in
  let leakage = float_tok lx ~expected:"a leakage power (nW)" in
  expect lx ";";
  let rec pins acc =
    let t = tok lx ~expected:"\"PIN\" or \"END\"" in
    match t.Lex.text with
    | "PIN" -> pins (pin lx :: acc)
    | "END" ->
      expect lx name;
      List.rev acc
    | _ -> err_at t ~expected:"\"PIN\" or \"END\""
  in
  let pins = pins [] in
  {
    Pdk.Stdcell.name;
    kind;
    drive;
    width_sites = width / tech.Pdk.Tech.site_width;
    width;
    height;
    pins;
    cap_in;
    drive_res;
    intrinsic_delay;
    leakage;
  }

let parse src =
  let lx = Lex.make src in
  match
    expect lx "VERSION";
    ignore (word lx ~expected:"a version number");
    expect lx ";";
    expect lx "ARCH";
    let at = tok lx ~expected:"an architecture (closedm1|openm1|conv12)" in
    let arch =
      match Pdk.Cell_arch.of_string at.Lex.text with
      | Some a -> a
      | None -> err_at at ~expected:"an architecture (closedm1|openm1|conv12)"
    in
    expect lx ";";
    expect lx "UNITS";
    expect lx "DATABASE";
    expect lx "MICRONS";
    let dt = tok lx ~expected:"an integer DBU-per-micron factor" in
    (match int_of_string_opt dt.Lex.text with
    | Some d when d = dbu_per_micron -> ()
    | _ ->
      err_at dt
        ~expected:(Printf.sprintf "%d (1 DBU = 1 nm)" dbu_per_micron));
    expect lx ";";
    expect lx "SITE";
    ignore (word lx ~expected:"a site name");
    expect lx "SIZE";
    let site_width = int_tok lx ~expected:"an integer site width" in
    expect lx "BY";
    let row_height = int_tok lx ~expected:"an integer row height" in
    expect lx ";";
    let base = Pdk.Tech.default arch in
    let m0_pitch = ref base.Pdk.Tech.m0_pitch in
    let m2_pitch = ref base.Pdk.Tech.m2_pitch in
    let m1_offset = ref base.Pdk.Tech.m1_offset in
    let rec layers () =
      match Lex.peek lx with
      | Some { Lex.text = "LAYER"; _ } ->
        ignore (Lex.next lx);
        let name = word lx ~expected:"a layer name" in
        expect lx "DIRECTION";
        let dt = tok lx ~expected:"\"HORIZONTAL\" or \"VERTICAL\"" in
        (match dt.Lex.text with
        | "HORIZONTAL" | "VERTICAL" -> ()
        | _ -> err_at dt ~expected:"\"HORIZONTAL\" or \"VERTICAL\"");
        expect lx "PITCH";
        let pitch = int_tok lx ~expected:"an integer pitch" in
        expect lx "OFFSET";
        let offset = int_tok lx ~expected:"an integer offset" in
        expect lx ";";
        (match name with
        | "M0" -> m0_pitch := pitch
        | "M1" -> m1_offset := offset
        | "M2" -> m2_pitch := pitch
        | _ -> ());
        layers ()
      | _ -> ()
    in
    layers ();
    expect lx "VM1RULES";
    expect lx "GAMMA";
    let gamma = int_tok lx ~expected:"an integer gamma (row span)" in
    expect lx "DELTA";
    let delta = int_tok lx ~expected:"an integer delta (overlap DBU)" in
    expect lx ";";
    let tech =
      {
        Pdk.Tech.arch;
        site_width;
        row_height;
        m0_pitch = !m0_pitch;
        m2_pitch = !m2_pitch;
        m1_offset = !m1_offset;
        gamma;
        delta;
      }
    in
    let rec macros acc =
      let t = tok lx ~expected:"\"MACRO\" or \"END LIBRARY\"" in
      match t.Lex.text with
      | "MACRO" -> macros (macro lx tech :: acc)
      | "END" ->
        expect lx "LIBRARY";
        List.rev acc
      | _ -> err_at t ~expected:"\"MACRO\" or \"END LIBRARY\""
    in
    let cells = macros [] in
    (match Lex.peek lx with
    | None -> ()
    | Some t -> err_at t ~expected:"end of input");
    { Pdk.Libgen.tech; cells }
  with
  | lib -> Ok lib
  | exception E e -> Error e

let parse_file path = parse (Lex.read_whole_file path)
